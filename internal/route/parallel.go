// Speculative parallel rip-up-and-reroute. The sequential RipupPass is a
// strict loop: remove a net's wires, reroute it under the now-current
// congestion, re-register the new wires, next net. Parallel is the
// optimistic version of that loop — route many nets concurrently against a
// usage snapshot, then commit the results one at a time in the original
// net order, validating each speculation against the usage the committed
// prefix actually produced — built so that its results, and the observer
// event stream, are byte-identical to the sequential kernel at every
// worker count.
//
// The protocol, per batch:
//
//  1. Batch: take the maximal contiguous prefix of the remaining net order
//     whose current route bounding boxes, each expanded by one tile, are
//     pairwise disjoint. Expanded-disjoint routes cannot share a tile edge
//     today, and mostly won't after rerouting, so intra-batch conflicts
//     are rare; the rule is purely a conflict-rate heuristic — correctness
//     never depends on it.
//  2. Speculate: route every net of the batch concurrently, read-only on
//     the shared graph, each worker slot using its own Workspace. The
//     net's own old wires are priced at usage-1 via Workspace.markOwnWires
//     (the sequential kernel would have called RemoveUsage first), and
//     every first-touch congestion read (edge, raw usage) is recorded —
//     the memoized cost path guarantees exactly one read per distinct
//     edge, so the read set is the complete congestion input of the
//     search. Per-net telemetry goes into an obs.Buffer.
//  3. Commit, in net order: a speculation is valid iff every edge it read
//     still has the usage it assumed (value comparison — tolerant of
//     usage that changed and changed back; the per-edge usage stamps of
//     tile.Graph serve as the cheap untouched-since-snapshot filter). A
//     valid net commits exactly as the sequential loop would — remove old
//     wires, register the speculative tree, flush its buffered events. An
//     invalid (or failed) speculation is discarded and the net is replayed
//     serially on the spot, which is literally the sequential kernel's
//     iteration.
//
// Why byte-identity holds: the wavefront search is deterministic given its
// edge costs, and the commit-time validation proves those costs equal what
// a sequential reroute running at that exact point would compute (same raw
// usages, same own-wire subtraction). By induction over the net order,
// every committed tree, every usage mutation, and every emitted event
// matches the sequential execution. The worker count only changes how the
// speculation work is scheduled across goroutines — batches, snapshots,
// conflicts, and replays depend on net order and graph state alone — so
// Workers=1 and Workers=64 produce identical output and identical
// ripup.speculative / ripup.conflicts / ripup.replayed counters.
package route

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rtree"
	"repro/internal/tile"
)

// specRead records one first-touch congestion read of a speculative
// reroute: edge e was priced assuming raw usage use.
type specRead struct{ e, use int32 }

// specBox is a route's bounding box in tile coordinates, inclusive.
type specBox struct{ x0, y0, x1, y1 int }

// touches reports whether the boxes overlap or are within one tile of each
// other in both axes — i.e. whether the underlying routes could possibly
// share a tile edge (two routes at Chebyshev distance >= 2 cannot).
func (a specBox) touches(b specBox) bool {
	return a.x0 <= b.x1+1 && b.x0 <= a.x1+1 && a.y0 <= b.y1+1 && b.y0 <= a.y1+1
}

// treeBox returns the bounding box of a route's tiles.
func treeBox(rt *rtree.Tree) specBox {
	b := specBox{x0: rt.Tile[0].X, y0: rt.Tile[0].Y, x1: rt.Tile[0].X, y1: rt.Tile[0].Y}
	for _, t := range rt.Tile[1:] {
		if t.X < b.x0 {
			b.x0 = t.X
		}
		if t.X > b.x1 {
			b.x1 = t.X
		}
		if t.Y < b.y0 {
			b.y0 = t.Y
		}
		if t.Y > b.y1 {
			b.y1 = t.Y
		}
	}
	return b
}

// Parallel is the deterministic speculative engine behind the Stage-2
// rip-up passes. One Parallel serves one run at a time (its scratch is not
// synchronized); construct with NewParallel and hand it to
// ReduceCongestion[Ctx], which falls back to the sequential kernel under
// an Options.Weight hook (a caller-supplied cost function may close over
// state the speculative pricing cannot see or validate).
type Parallel struct {
	workers int
	pool    *Pool

	// stats accumulate across every Pass of the engine's lifetime and are
	// emitted once per Stage-2 call by ReduceCongestionCtx. They are
	// worker-count-independent (see the package comment).
	stats struct {
		speculative int // speculative reroutes attempted
		conflicts   int // speculations discarded by commit-time validation
		replayed    int // serial replays (conflicted or failed speculations)
	}

	// Per-batch-position scratch, reused across batches and passes: the
	// net at order position jj of the batch starting at s uses slot jj-s.
	boxes []specBox    // bounding boxes of the current batch
	specs []specResult // speculative route trees / errors
	reads [][]specRead // read sets
	bufs  []obs.Buffer // buffered per-net telemetry
	wss   []*Workspace // per-worker-slot workspaces, held per Pass
	rr    int          // round-robin cursor for carcass redistribution
}

// specResult is one net's speculation outcome.
type specResult struct {
	tree *rtree.Tree
	err  error
}

// NewParallel returns a speculative rip-up engine routing on
// par.Workers(workers) goroutines with per-worker workspaces drawn from
// pool (nil allocates fresh ones per pass). Results and event streams are
// byte-identical to the sequential RipupPass for every workers value,
// including 1, so callers thread a Parallel unconditionally and choose
// workers purely for speed.
func NewParallel(workers int, pool *Pool) *Parallel {
	return &Parallel{workers: workers, pool: pool}
}

// grow sizes the per-batch-position scratch for a batch of n nets. The
// read sets already grown are kept, so their buffers are reused.
func (px *Parallel) grow(n int) {
	if len(px.specs) < n {
		px.specs = make([]specResult, n)
		px.reads = append(px.reads, make([][]specRead, n-len(px.reads))...)
		px.bufs = make([]obs.Buffer, n)
	}
}

// batchEnd returns the end (exclusive) of the maximal contiguous batch of
// order starting at s whose routes' expanded bounding boxes are pairwise
// disjoint, leaving the boxes in px.boxes. At least one net is always
// taken.
func (px *Parallel) batchEnd(routes []*rtree.Tree, order []int, s int) int {
	px.boxes = px.boxes[:0]
	e := s
	for e < len(order) {
		b := treeBox(routes[order[e]])
		clash := false
		for _, a := range px.boxes {
			if a.touches(b) {
				clash = true
				break
			}
		}
		if clash {
			break
		}
		px.boxes = append(px.boxes, b)
		e++
	}
	if e == s {
		e = s + 1 // unreachable (the first box never clashes), but safe
	}
	return e
}

// conflicted reports whether a speculation's read set is stale: some edge
// it priced no longer carries the usage it assumed. snap is the graph's
// usage epoch at speculation time — edges untouched since then are valid
// without a value comparison, and a graph untouched as a whole validates
// the entire set at once (the usual case for the first commit of a batch).
func conflicted(g *tile.Graph, reads []specRead, snap uint64) bool {
	if g.UsageEpoch() == snap {
		return false
	}
	for _, r := range reads {
		if !g.UsageChangedSince(int(r.e), snap) {
			continue
		}
		if g.Usage(int(r.e)) != int(r.use) {
			return true
		}
	}
	return false
}

// rerouteSpec is the speculative Reroute wrapper run by worker slots: it
// arms the workspace's speculation state (own-tree marking, read-set
// recording), routes the net read-only against the shared graph, and
// returns the tree, the grown read set, and any search error. Telemetry
// goes to opt.Obs, which the caller points at a per-net buffer.
func rerouteSpec(g *tile.Graph, n *netlist.Net, old *rtree.Tree, opt Options, ws *Workspace, reads []specRead) (*rtree.Tree, []specRead, error) {
	ws.spec.active = true
	ws.spec.old = old
	ws.spec.reads = reads[:0]
	rt, err := Reroute(g, n, opt, ws)
	reads = ws.spec.reads
	ws.spec.active = false
	ws.spec.old = nil
	ws.spec.reads = nil
	return rt, reads, err
}

// speculate routes net i speculatively on worker slot w, storing the tree,
// read set, and buffered telemetry in batch position k's scratch.
func (px *Parallel) speculate(g *tile.Graph, nets []*netlist.Net, routes []*rtree.Tree, i int, opt Options, w, k int) {
	sopt := opt
	if opt.Obs != nil {
		px.bufs[k].Reset()
		sopt.Obs = &px.bufs[k]
	}
	rt, reads, rerr := rerouteSpec(g, nets[i], routes[i], sopt, px.wss[w], px.reads[k])
	px.reads[k] = reads
	px.specs[k] = specResult{tree: rt, err: rerr}
}

// Pass runs one full rip-up pass over order with the speculate-then-commit
// protocol. It is a drop-in replacement for RipupPass: routes, the graph's
// wire usage, the emitted event stream, the returned committed-prefix
// count, and the error contract are all byte-identical to the sequential
// kernel's, at every worker count. opt.Weight must be nil (ReduceCongestion
// enforces the fallback).
func (px *Parallel) Pass(g *tile.Graph, nets []*netlist.Net, routes []*rtree.Tree, order []int, opt Options, ws *Workspace) (committed int, err error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	n := len(order)
	// Acquire one workspace per worker slot for the pass; the pool keeps
	// their scratch arrays warm across passes and runs.
	slots := par.Workers(px.workers)
	if slots > n {
		slots = n
	}
	for len(px.wss) < slots {
		px.wss = append(px.wss, px.pool.Get())
	}
	defer func() {
		for k, w := range px.wss {
			px.pool.Put(w)
			px.wss[k] = nil
		}
		px.wss = px.wss[:0]
	}()

	reroutes, improved, degraded := 0, 0, 0
	for s := 0; s < n; {
		e := px.batchEnd(routes, order, s)

		// Speculate: route the batch concurrently against the usage
		// snapshot. Workers only read g; every write target (specs, reads,
		// bufs) is per order position. With one slot the fan-out machinery
		// would only add per-batch overhead, so run the items inline — the
		// outcome is identical either way.
		snap := g.UsageEpoch()
		px.stats.speculative += e - s
		px.grow(e - s)
		if slots == 1 {
			for k := 0; k < e-s; k++ {
				px.speculate(g, nets, routes, order[s+k], opt, 0, k)
			}
		} else if ferr := par.ForEachWorker(px.workers, e-s, func(w, k int) error {
			px.speculate(g, nets, routes, order[s+k], opt, w, k)
			return nil
		}); ferr != nil {
			// Only a panic inside a worker reaches here (speculation
			// errors are carried per net and replayed below).
			return committed, ferr
		}

		// Commit in net order.
		for jj := s; jj < e; jj++ {
			i, k := order[jj], jj-s
			old := routes[i]
			oldEdges := old.NumEdges()
			sp := px.specs[k]
			px.specs[k] = specResult{}
			var rt *rtree.Tree
			if sp.err == nil && !conflicted(g, px.reads[k], snap) {
				// The speculation priced exactly the usage a sequential
				// reroute would see here; adopt its tree and telemetry.
				rt = sp.tree
				px.bufs[k].FlushTo(opt.Obs)
				RemoveUsage(g, old)
			} else {
				// Stale or failed speculation: discard it and replay this
				// net serially — the literal sequential iteration, events
				// emitted directly.
				if sp.err == nil {
					px.stats.conflicts++
					ws.Recycle(sp.tree)
				}
				px.stats.replayed++
				px.bufs[k].Reset()
				RemoveUsage(g, old)
				var rerr error
				rt, rerr = Reroute(g, nets[i], opt, ws)
				if rerr != nil {
					AddUsage(g, old) // restore before failing, like RipupPass
					px.drop(k+1, e-s, ws)
					return committed, fmt.Errorf("route: rip-up pass failed at net %d after %d of %d commits: %w",
						nets[i].ID, committed, len(order), rerr)
				}
			}
			routes[i] = rt
			AddUsage(g, rt)
			// Hand the dead tree's storage back to a worker slot: the
			// speculative trees are built from the slot workspaces' free
			// lists, so without redistribution every pass would allocate a
			// fresh tree per net (the sequential kernel recycles into the
			// one workspace that also routes). Round-robin keeps the slots
			// stocked; which slot gets which carcass cannot affect results.
			px.wss[px.rr%len(px.wss)].Recycle(old)
			px.rr++
			committed++
			reroutes++
			if ne := rt.NumEdges(); ne < oldEdges {
				improved++
			} else if ne > oldEdges {
				degraded++
			}
		}
		s = e
	}
	if opt.Obs != nil {
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "ripup.reroutes", Stage: opt.Stage, Pass: opt.Pass, Net: -1, Value: float64(reroutes)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "ripup.improved", Stage: opt.Stage, Pass: opt.Pass, Net: -1, Value: float64(improved)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "ripup.degraded", Stage: opt.Stage, Pass: opt.Pass, Net: -1, Value: float64(degraded)})
	}
	return committed, nil
}

// drop releases the uncommitted batch positions [k, e) after a mid-batch
// failure: speculative trees are recycled and buffered telemetry
// discarded, leaving routes and the graph exactly as the sequential
// kernel's error path would.
func (px *Parallel) drop(k, e int, ws *Workspace) {
	for ; k < e; k++ {
		ws.Recycle(px.specs[k].tree)
		px.specs[k] = specResult{}
		px.bufs[k].Reset()
	}
}
