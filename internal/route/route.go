// Package route implements the tile-graph routing used by Stages 2 and 4:
// a Prim–Dijkstra-flavored wavefront expansion under the congestion cost of
// Eq. (1), whole-net rip-up-and-reroute in the style of Nair, and the
// buffer-aware two-path maze search of Stage 4 that minimizes the combined
// wire and buffer congestion costs (Eqs. (1) + (2)).
package route

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/tile"
	"repro/internal/viz"
)

// Options controls the router.
type Options struct {
	// Alpha is the Prim–Dijkstra tradeoff applied to the accumulated path
	// cost when relaxing neighbors (1 = pure shortest paths). The paper
	// reuses its Stage-1 value, 0.4.
	Alpha float64
	// LengthWeight is added to every edge cost so that among equally
	// uncongested routes the shorter one wins.
	LengthWeight float64
	// OverflowPenalty replaces the +Inf of Eq. (1)/(2) so that a route (or
	// buffer) always exists even when every alternative is saturated; the
	// huge cost still makes the router exhaust all finite options first.
	OverflowPenalty float64
	// Weight, when non-nil, replaces the congestion cost of Eq. (1) as the
	// per-edge routing cost: edge e costs Weight[e] (LengthWeight is still
	// added), and len(Weight) must equal g.NumEdges(). nil means Eq. (1).
	// The multicommodity-flow router routes under its own exponential edge
	// lengths this way; the entries must be non-negative and must not
	// change during a call.
	Weight []float64
	// Obs receives router telemetry: per-net wavefront pop/push counters,
	// rip-up pass spans with the per-pass overflow trajectory, and
	// congestion-heat snapshots after every pass. nil (the default)
	// disables instrumentation at zero cost.
	Obs obs.Observer
	// Stage labels emitted telemetry with the pipeline stage (0 outside
	// the RABID pipeline).
	Stage int
	// Pass labels emitted telemetry with the rip-up pass number;
	// ReduceCongestionCtx sets it on the per-pass Options copy.
	Pass int
}

// DefaultOptions returns the parameter set used by the experiments.
func DefaultOptions() Options {
	return Options{Alpha: 0.4, LengthWeight: 0.05, OverflowPenalty: 1e6}
}

// edgeCost returns the finite routing cost for edge e. It and the other
// per-relaxation cost helpers take Options by pointer: copying the whole
// struct on every relaxation was a measurable share of Stage-4 CPU.
func edgeCost(g *tile.Graph, e int, opt *Options) float64 {
	var c float64
	if opt.Weight != nil {
		c = opt.Weight[e]
	} else {
		c = g.WireCost(e)
	}
	if c > opt.OverflowPenalty {
		c = opt.OverflowPenalty
	}
	return c + opt.LengthWeight
}

// edgeCostMemo is edgeCost with a per-call memo: within one search call the
// congestion state of g and Options.Weight are static (a net's own wires
// are removed before it reroutes), so every evaluation of an edge yields
// the same value and the first one can be cached under the call's epoch.
func (ws *Workspace) edgeCostMemo(g *tile.Graph, e int, opt *Options) float64 {
	if ws.ecStamp[e] == ws.epoch {
		return ws.ec[e]
	}
	c := edgeCost(g, e, opt)
	ws.ecStamp[e] = ws.epoch
	ws.ec[e] = c
	return c
}

// Reroute computes a fresh route tree for the net on the current congestion
// state of g. The net's own previous wires must already be removed from g
// (see RemoveUsage). The route is a union of wavefront paths from the
// source tile to every sink tile, traced back through the predecessor
// labels, exactly as described for Stage 2. The wavefront is the plain
// binary-heap expansion.
//
// ws supplies the reusable scratch arrays and recycled tree storage; nil is
// allowed (a private workspace is allocated). With a warmed workspace and a
// nil observer the call performs no allocations.
func Reroute(g *tile.Graph, n *netlist.Net, opt Options, ws *Workspace) (*rtree.Tree, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	src := n.Source.Tile
	if !g.InGrid(src) {
		return nil, fmt.Errorf("route: net %d source %v outside grid", n.ID, src) //rabid:allow allocfree cold abort path: fmt argument boxing only when the route fails
	}
	nt := g.NumTiles()
	ws.begin(g.NumEdges()) //rabid:allow allocfree inlined grow path: begin reallocates edge scratch only when the graph outgrows the workspace
	ws.growTiles(nt)       //rabid:allow allocfree inlined grow path: tile scratch reallocates only when the graph outgrows the workspace
	ep := ws.epoch
	// Mark the sink tiles still to be reached; remaining counts distinct
	// marked tiles (the wantStamp epoch check deduplicates co-located
	// sinks, as the map insert used to).
	remaining := 0
	for _, s := range n.Sinks {
		if !g.InGrid(s.Tile) {
			return nil, fmt.Errorf("route: net %d sink %v outside grid", n.ID, s.Tile) //rabid:allow allocfree cold abort path: fmt argument boxing only when the route fails
		}
		if ti := g.TileIndex(s.Tile); ws.wantStamp[ti] != ep {
			ws.wantStamp[ti] = ep
			remaining++
		}
	}
	srcIdx := g.TileIndex(src)
	if ws.wantStamp[srcIdx] == ep {
		ws.wantStamp[srcIdx] = 0
		remaining--
	}

	ws.stamp[srcIdx] = ep
	ws.key[srcIdx] = 0
	ws.pathCost[srcIdx] = 0
	ws.done[srcIdx] = false
	ws.pushPQ(pqItem{srcIdx, 0}) // sole item: its priority never competes
	tally := opt.Obs != nil      // counter bookkeeping only when someone listens
	pops, pushes, relaxations := 0, 0, 0
	if tally {
		pushes = 1
	}
	for len(ws.q) > 0 && remaining > 0 {
		it := ws.popPQ()
		if tally {
			pops++
		}
		u := it.node
		if ws.done[u] {
			continue
		}
		ws.done[u] = true
		if ws.wantStamp[u] == ep {
			ws.wantStamp[u] = 0
			remaining--
		}
		nbrs, edges := g.Adjacency(u)
		pcu := ws.pathCost[u]
		base := opt.Alpha * pcu
		for x, v32 := range nbrs {
			v := int(v32)
			if ws.stamp[v] != ep {
				// First touch this call: an unstamped tile reads as
				// key = +Inf, not done.
				ws.stamp[v] = ep
				ws.key[v] = math.Inf(1)
				ws.done[v] = false
			} else if ws.done[v] {
				continue
			}
			if tally {
				relaxations++
			}
			ec := ws.edgeCostMemo(g, int(edges[x]), &opt)
			if k := base + ec; k < ws.key[v] {
				ws.key[v] = k
				ws.pathCost[v] = pcu + ec
				//rabid:allow narrowcast tile indices are < NumTiles <= MaxInt32, enforced by tile.New
				ws.pred[v] = int32(u)
				ws.pushPQ(pqItem{v, k})
				if tally {
					pushes++
				}
			}
		}
	}
	if tally {
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.pops", Stage: opt.Stage, Net: n.ID, Value: float64(pops)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.pushes", Stage: opt.Stage, Net: n.ID, Value: float64(pushes)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.relaxations", Stage: opt.Stage, Net: n.ID, Value: float64(relaxations)})
	}
	if remaining > 0 {
		return nil, fmt.Errorf("route: net %d: %d sinks unreachable", n.ID, remaining) //rabid:allow allocfree cold abort path: fmt argument boxing only when the route fails
	}
	// Trace each sink back to the source; the union of predecessor paths is
	// a tree because every node has one predecessor. A tile whose chain was
	// already traced stops the walk. The builder numbers the nodes, and
	// its prune is a no-op here: every traced tile lies on a sink-to-source
	// path.
	if err := ws.tb.Frame(geom.Pt{}, geom.Pt{X: g.W - 1, Y: g.H - 1}); err != nil {
		return nil, fmt.Errorf("route: net %d: %w", n.ID, err) //rabid:allow allocfree cold abort path: tile.New caps the grid below the builder's box limit
	}
	ws.sinks = ws.sinks[:0]
	for _, s := range n.Sinks {
		ws.sinks = append(ws.sinks, s.Tile)
		//rabid:allow narrowcast tile indices are < NumTiles <= MaxInt32, enforced by tile.New
		for v := int32(g.TileIndex(s.Tile)); v != int32(srcIdx) && !ws.tb.Has(v); v = ws.pred[v] {
			ws.tb.Set(v, ws.pred[v])
		}
	}
	rt := ws.TakeTree() //rabid:allow allocfree fresh tree only when the recycle pool is empty; the steady state reuses storage returned through Recycle
	if err := ws.tb.Build(rt, src, ws.sinks); err != nil {
		ws.Recycle(rt)
		return nil, fmt.Errorf("route: net %d: %w", n.ID, err) //rabid:allow allocfree cold abort path: every traced chain ends at the source over grid edges
	}
	return rt, nil
}

// AddUsage registers one wire per route-tree edge on the graph. Edges are
// visited in node order (as EdgePairs enumerates them) without
// materializing the pair list.
func AddUsage(g *tile.Graph, rt *rtree.Tree) {
	for v := 1; v < len(rt.Tile); v++ {
		a, b := rt.Tile[rt.Parent[v]], rt.Tile[v]
		e, ok := g.EdgeBetween(a, b)
		if !ok {
			panic(fmt.Sprintf("route: tree edge %v-%v not a grid edge", a, b)) //rabid:allow allocfree panic path: boxing only when a corrupted tree violates the grid invariant
		}
		g.AddWire(e)
	}
}

// RemoveUsage removes the route tree's wires from the graph.
func RemoveUsage(g *tile.Graph, rt *rtree.Tree) {
	for v := 1; v < len(rt.Tile); v++ {
		a, b := rt.Tile[rt.Parent[v]], rt.Tile[v]
		e, ok := g.EdgeBetween(a, b)
		if !ok {
			panic(fmt.Sprintf("route: tree edge %v-%v not a grid edge", a, b)) //rabid:allow allocfree panic path: boxing only when a corrupted tree violates the grid invariant
		}
		g.RemoveWire(e) //rabid:allow allocfree inlined panic path: RemoveWire boxes its message only when the edge carries no wire, i.e. when the rip-up bookkeeping is corrupted
	}
}

// RipupPass performs one full Nair-style pass: every net, in the given
// order, is deleted entirely and rerouted under the current congestion.
// routes is updated in place (indexed like nets). With an observer
// attached it counts reroutes attempted versus improved/degraded (by
// routed wirelength), the convergence signal of the Nair iteration.
//
// It returns the number of order entries fully committed (old tree
// replaced, wire usage re-registered). On success that is len(order); when
// a Reroute fails mid-pass the earlier nets of the pass have already been
// replaced and their old trees recycled, and the returned count tells the
// caller exactly which prefix of order committed — routes[order[:committed]]
// hold the new trees, the remaining entries still hold their pre-pass
// trees, and the graph's wire usage is consistent with the routes slice in
// either region (the failing net's own wires are restored before the error
// returns). TestRipupPassPartialFailure pins this contract.
//
// Each ripped-up tree is donated to the workspace once its replacement is
// registered (the pass holds the only reference by contract — callers hand
// over routes they own), so a warmed workspace reroutes every net without
// allocating.
func RipupPass(g *tile.Graph, nets []*netlist.Net, routes []*rtree.Tree, order []int, opt Options, ws *Workspace) (committed int, err error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	reroutes, improved, degraded := 0, 0, 0
	for _, i := range order {
		old := routes[i]
		oldEdges := old.NumEdges()
		RemoveUsage(g, old)
		rt, err := Reroute(g, nets[i], opt, ws)
		if err != nil {
			AddUsage(g, old)                                                                               // restore before failing
			return committed, fmt.Errorf("route: rip-up pass failed at net %d after %d of %d commits: %w", //rabid:allow allocfree cold abort path: fmt argument boxing only when the pass fails
				nets[i].ID, committed, len(order), err)
		}
		routes[i] = rt
		AddUsage(g, rt)
		ws.Recycle(old)
		committed++
		reroutes++
		if n := rt.NumEdges(); n < oldEdges {
			improved++
		} else if n > oldEdges {
			degraded++
		}
	}
	if opt.Obs != nil {
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "ripup.reroutes", Stage: opt.Stage, Pass: opt.Pass, Net: -1, Value: float64(reroutes)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "ripup.improved", Stage: opt.Stage, Pass: opt.Pass, Net: -1, Value: float64(improved)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "ripup.degraded", Stage: opt.Stage, Pass: opt.Pass, Net: -1, Value: float64(degraded)})
	}
	return committed, nil
}

// ReduceCongestionCtx is Stage 2: up to maxPasses full rip-up-and-reroute
// passes (RipupPass), stopping early once no edge exceeds capacity. It
// returns the number of passes executed — 0 when the circuit is already
// overflow-free at entry (a zero-overflow circuit has nothing for Nair
// iteration to reduce, so no pass runs and the Stage-1 routes are kept
// verbatim). Each pass is a trace span carrying the post-pass overflow
// trajectory and a congestion-heat snapshot.
//
// Every rip-up pass boundary is a cancellation checkpoint: once ctx is
// done no further pass starts and ctx.Err() is returned with the passes
// completed so far. A pass itself always runs to completion, so the
// graph's usage accounting is only ever observed at a pass boundary.
func ReduceCongestionCtx(ctx context.Context, g *tile.Graph, nets []*netlist.Net, routes []*rtree.Tree, order []int, maxPasses int, opt Options, ws *Workspace) (int, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	// With an observer attached, interpose a counting tap: it forwards
	// every event unchanged (streams stay byte-identical) while summing the
	// per-net route.pops / route.relaxations counters, so the totals below
	// reflect exactly the emitted event stream.
	var tap *wavefrontTap
	if opt.Obs != nil {
		tap = &wavefrontTap{inner: opt.Obs}
		opt.Obs = tap
	}
	passes := 0
	for passes < maxPasses {
		if err := ctx.Err(); err != nil {
			return passes, err
		}
		if g.WireCongestion().Overflow == 0 {
			break
		}
		popt := opt
		popt.Pass = passes + 1
		t0 := obs.Now(opt.Obs)
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindSpanBegin, Scope: "ripup.pass", Stage: opt.Stage, Pass: popt.Pass, Net: -1})
		_, err := RipupPass(g, nets, routes, order, popt, ws)
		if opt.Obs != nil {
			wst := g.WireCongestion()
			// The heat snapshot reuses the workspace buffer across passes;
			// observers must not retain Event.Vals (see obs.Event).
			ws.heat = viz.WireHeatInto(g, ws.heat)
			obs.Emit(opt.Obs, obs.Event{Kind: obs.KindGauge, Scope: "ripup.overflow", Stage: opt.Stage, Pass: popt.Pass, Net: -1, Value: float64(wst.Overflow)})
			obs.Emit(opt.Obs, obs.Event{Kind: obs.KindGauge, Scope: "ripup.wire_max", Stage: opt.Stage, Pass: popt.Pass, Net: -1, Value: wst.Max})
			obs.Emit(opt.Obs, obs.Event{Kind: obs.KindHeat, Scope: "heat.wire", Stage: opt.Stage, Pass: popt.Pass, Net: -1, Vals: ws.heat})
			obs.Emit(opt.Obs, obs.Event{Kind: obs.KindSpanEnd, Scope: "ripup.pass", Stage: opt.Stage, Pass: popt.Pass, Net: -1, Dur: obs.Since(opt.Obs, t0)})
		}
		if err != nil {
			return passes, err
		}
		passes++
		if g.WireCongestion().Overflow == 0 {
			break
		}
	}
	// Wavefront totals labeled by the queue they popped from (the binary
	// heap), emitted once per Stage-2 call, not per pass, and zero-valued
	// when no pass ran, so cmd/metricscheck can require
	// route.pops.heap.<stage> whenever an observer is attached.
	if tap != nil {
		obs.Emit(tap.inner, obs.Event{Kind: obs.KindCounter, Scope: "route.pops.heap", Stage: opt.Stage, Net: -1, Value: tap.pops})
		obs.Emit(tap.inner, obs.Event{Kind: obs.KindCounter, Scope: "route.relaxations.heap", Stage: opt.Stage, Net: -1, Value: tap.relaxations})
	}
	return passes, nil
}

// wavefrontTap is a pass-through observer that totals the per-net
// wavefront counters flowing by; ReduceCongestionCtx uses it to emit the
// Stage-2 aggregates without a second bookkeeping path in the hot loops.
type wavefrontTap struct {
	inner             obs.Observer
	pops, relaxations float64
}

func (t *wavefrontTap) Observe(e obs.Event) {
	if e.Kind == obs.KindCounter {
		switch e.Scope {
		case "route.pops":
			t.pops += e.Value
		case "route.relaxations":
			t.relaxations += e.Value
		}
	}
	t.inner.Observe(e)
}

// siteCostClamped is the Eq. (2) site cost with the router's overflow
// clamp applied.
func siteCostClamped(g *tile.Graph, v int, opt *Options) float64 {
	c := g.SiteCost(v)
	if c > opt.OverflowPenalty {
		c = opt.OverflowPenalty
	}
	return c
}

// siteCostMemo is siteCostClamped with a per-call memo, as edgeCostMemo is
// for edges: within one search call the buffer usage and demand of g are
// static (Stage 4 releases a net's buffers before reworking it), so the
// first evaluation of a tile can be cached under the call's epoch.
func (ws *Workspace) siteCostMemo(g *tile.Graph, v int, opt *Options) float64 {
	if ws.scStamp[v] == ws.epoch {
		return ws.sc[v]
	}
	c := siteCostClamped(g, v, opt)
	ws.scStamp[v] = ws.epoch
	ws.sc[v] = c
	return c
}

// boundSlack is the relative slack of the incumbent bound: a state is
// pruned only when its cost plus its remaining-cost lower bound exceeds
// U*(1+boundSlack). On the chain the search returns, g + h <= g* <= U holds
// in exact arithmetic; the float sums realizing g, h and U each carry a
// relative error of at most (path length)*2^-53, orders of magnitude
// below the slack.
const boundSlack = 1e-9

// boundMinL is the smallest length constraint at which BufferAwarePath
// arms the reverse-Dijkstra h of the incumbent bound. Below it a
// tile carries at most two labels, and the tile-level arming search costs
// more than the (tile, j) work it saves, so the bound runs with h = 0 (see
// DESIGN.md "Bounded Stage-4 search").
const boundMinL = 3

// BufferAwarePath finds the cheapest tail-to-head reconnection for a ripped
// two-path under the combined wire + buffer cost. The search state is
// (tile, j) where j is the tile distance since the last buffer (bounded by
// L-1, as in the Stage-3 cost arrays); moving to a tile either advances j
// or places a buffer there (adding the Eq. (2) site cost) and resets j.
// blocked tiles (the rest of the net's tree, as a per-tile-index mask; nil
// blocks nothing) are not entered. The returned path runs from head to tail
// inclusive.
//
// incumbent, when non-nil, is a known tail-to-head walk — Stage 4 passes
// the ripped two-path itself. Its cost under the same recurrence bounds the
// optimum from above, and states that provably cannot beat it are never
// pushed. Label dominance also skips a state when its tile already expanded
// a smaller j at no greater cost.
// Both prune only states that cannot lie on the returned path: the pop
// order (cost, then state index) and the first-strict-improvement
// predecessor rule are those of the plain Dijkstra, so the result is
// identical with or without an incumbent (DESIGN.md "Bounded Stage-4
// search"). A walk that is not a legal path of the search (wrong ends, a
// non-adjacent step, a blocked or head tile in its interior) is ignored.
//
// ws supplies the reusable (tile, j) state arrays; nil is allowed. The
// returned path aliases the workspace's traceback buffer and is valid only
// until the workspace's next use — callers that keep paths must copy.
func BufferAwarePath(g *tile.Graph, tail, head geom.Pt, L int, blocked []bool, incumbent []geom.Pt, opt Options, ws *Workspace) ([]geom.Pt, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if L < 1 {
		return nil, fmt.Errorf("route: length constraint %d < 1", L) //rabid:allow allocfree cold abort path: fmt argument boxing only on invalid input
	}
	if !g.InGrid(tail) || !g.InGrid(head) {
		return nil, fmt.Errorf("route: endpoints %v,%v outside grid", tail, head) //rabid:allow allocfree cold abort path: fmt argument boxing only on invalid input
	}
	nt := g.NumTiles()
	// The (tile, j) state space is indexed by int32 predecessor labels; a
	// large grid times a large L would silently wrap the labels and corrupt
	// the traceback, so the size is guarded up front (before allocation).
	if int64(nt)*int64(L) > math.MaxInt32 {
		return nil, fmt.Errorf("route: DP state space %d tiles x L=%d = %d exceeds %d states", //rabid:allow allocfree cold abort path: fmt argument boxing only when the guard rejects the instance
			nt, L, int64(nt)*int64(L), int64(math.MaxInt32))
	}
	ws.begin(g.NumEdges()) //rabid:allow allocfree inlined grow path: begin reallocates edge scratch only when the graph outgrows the workspace
	ws.growStates(nt * L)  //rabid:allow allocfree inlined grow path: DP state scratch reallocates only when tiles*L outgrows the workspace
	ws.growTiles(nt)       //rabid:allow allocfree inlined grow path: tile scratch reallocates only when the graph outgrows the workspace
	ws.growSites(nt)       //rabid:allow allocfree inlined grow path: the site-cost memo reallocates only when the graph outgrows the workspace
	ep := ws.epoch
	headIdx := g.TileIndex(head)
	limit := math.Inf(1)
	if u, ok := ws.incumbentCost(g, incumbent, tail, head, L, blocked, &opt); ok {
		limit = u * (1 + boundSlack)
	}
	// h is armed only for a finite bound at L >= boundMinL; otherwise the
	// bound prunes with h = 0.
	armed := L >= boundMinL && !math.IsInf(limit, 1)
	if armed {
		ws.armPathBound(g, headIdx, blocked, &opt, limit)
	}
	start := g.TileIndex(tail) * L // state (tail, 0)
	ws.sStamp[start] = ep
	ws.sDist[start] = 0
	ws.sPred[start] = -1
	ws.sDone[start] = false
	ws.pushPQ(pqItem{start, 0}) // sole item: its priority never competes
	goal := -1
	tally := opt.Obs != nil
	pops, pushes, relaxations := 0, 0, 0
	if tally {
		pushes = 1
		if armed {
			// The arming reverse Dijkstra is real queue work; charging it
			// here keeps the pops/relaxations accounting honest.
			pops += ws.h.armPops
			relaxations += ws.h.armRelax
		}
	}
	// Per-tile dominance record, kept in Reroute's tile arrays (the two
	// searches never share a call): domStamp[t] == ep marks a tile with an
	// expanded state, domJ[t] is the smallest j expanded there and
	// domCost[t] that state's cost. Skipping dominated states is exact
	// because states pop in cost order.
	domStamp, domCost, domJ := ws.stamp, ws.key, ws.pred
	for len(ws.q) > 0 {
		it := ws.popPQ()
		if tally {
			pops++
		}
		s := it.node
		if ws.sDone[s] {
			continue
		}
		ws.sDone[s] = true
		v, j := s/L, s%L
		if v == headIdx {
			goal = s
			break
		}
		ds := ws.sDist[s]
		// An expanded (v, j') with j' < j at cost <= ds reaches every
		// state (v, j) reaches, at no greater cost and with no less buffer
		// slack: skip. An expanded state of v at cost <= ds has already
		// offered every (w, 0) at no greater cost, so a buffer move from
		// here cannot strictly improve one. Costs are compared explicitly
		// rather than read off the pop order.
		bufMoves := true
		if domStamp[v] == ep {
			if domCost[v] <= ds {
				if int(domJ[v]) < j {
					continue
				}
				bufMoves = false
			}
			if j < int(domJ[v]) {
				//rabid:allow narrowcast j < L and L*tiles <= MaxInt32, guarded at function entry
				domJ[v], domCost[v] = int32(j), ds
			}
		} else {
			//rabid:allow narrowcast j < L and L*tiles <= MaxInt32, guarded at function entry
			domStamp[v], domJ[v], domCost[v] = ep, int32(j), ds
		}
		nbrs, edges := g.Adjacency(v)
		for x, w32 := range nbrs {
			w := int(w32)
			if blocked != nil && blocked[w] && w != headIdx {
				continue
			}
			if tally {
				relaxations++
			}
			wc := ws.edgeCostMemo(g, int(edges[x]), &opt)
			var hw float64 // the lower bound at w
			if armed {
				hw = ws.pathBound(w)
			}
			// Advance without buffering, unless the bound rules it out or w
			// already expanded a state (w, j') with j' <= j at cost <= nd,
			// which dominates (w, j+1).
			if nd := ds + wc; j+1 < L && nd+hw <= limit &&
				!(domStamp[w] == ep && int(domJ[w]) <= j && domCost[w] <= nd) {
				ns := w*L + j + 1
				if ws.sStamp[ns] != ep {
					ws.sStamp[ns] = ep
					ws.sDist[ns] = math.Inf(1)
					ws.sDone[ns] = false
				}
				if nd < ws.sDist[ns] {
					ws.sDist[ns] = nd
					//rabid:allow narrowcast s < nt*L, guarded against MaxInt32 at function entry
					ws.sPred[ns] = int32(s)
					ws.pushPQ(pqItem{ns, nd})
					if tally {
						pushes++
					}
				}
			}
			// Buffer at the new tile, unless a no-costlier expansion of v
			// already offered it or the bound rules it out.
			if !bufMoves {
				continue
			}
			if nd := ds + wc + ws.siteCostMemo(g, w, &opt); nd+hw <= limit {
				ns := w * L
				if ws.sStamp[ns] != ep {
					ws.sStamp[ns] = ep
					ws.sDist[ns] = math.Inf(1)
					ws.sDone[ns] = false
				}
				if nd < ws.sDist[ns] {
					ws.sDist[ns] = nd
					//rabid:allow narrowcast s < nt*L, guarded against MaxInt32 at function entry
					ws.sPred[ns] = int32(s)
					ws.pushPQ(pqItem{ns, nd})
					if tally {
						pushes++
					}
				}
			}
		}
	}
	if tally {
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.bap.pops", Stage: opt.Stage, Net: -1, Value: float64(pops)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.bap.pushes", Stage: opt.Stage, Net: -1, Value: float64(pushes)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.bap.relaxations", Stage: opt.Stage, Net: -1, Value: float64(relaxations)})
	}
	if goal < 0 {
		return nil, fmt.Errorf("route: no reconnection from %v to %v", tail, head) //rabid:allow allocfree cold abort path: fmt argument boxing only when no path exists
	}
	rev := ws.path[:0]
	for s := goal; s != -1; s = int(ws.sPred[s]) {
		pv := g.TileAt(s / L)
		if len(rev) == 0 || rev[len(rev)-1] != pv {
			rev = append(rev, pv)
		}
	}
	ws.path = rev
	// rev is head..tail already (we traced from the head state back).
	return rev, nil
}

// incumbentCost prices a tail-to-head walk under BufferAwarePath's own
// (tile, j) recurrence: the cheapest buffering of exactly that walk, with
// the search's float operations in the search's order (ds + wc to advance,
// ds + wc + site to buffer). Each value is the cost of a state path the
// search could take, so the result bounds the search's optimum from
// above. ok is false when the walk is empty or not a legal path of the
// search: wrong ends, a non-adjacent step, or a blocked or head tile in its
// interior.
func (ws *Workspace) incumbentCost(g *tile.Graph, walk []geom.Pt, tail, head geom.Pt, L int, blocked []bool, opt *Options) (float64, bool) {
	n := len(walk)
	if n == 0 || walk[0] != tail || walk[n-1] != head {
		return 0, false
	}
	if len(ws.incRow) < 2*L {
		ws.incRow = make([]float64, 2*L) //rabid:allow allocfree cold grow path: the two recurrence rows reallocate only when L outgrows the workspace
	}
	ws.growSites(g.NumTiles()) //rabid:allow allocfree inlined grow path: the site-cost memo reallocates only when the graph outgrows the workspace
	cur, next := ws.incRow[:L], ws.incRow[L:2*L]
	cur[0] = 0
	for j := 1; j < L; j++ {
		cur[j] = math.Inf(1)
	}
	headIdx := g.TileIndex(head)
	for i := 1; i < n; i++ {
		w := walk[i]
		if !g.InGrid(w) {
			return 0, false
		}
		wi := g.TileIndex(w)
		if i < n-1 && (wi == headIdx || blocked != nil && blocked[wi]) {
			return 0, false
		}
		e, ok := g.EdgeBetween(walk[i-1], w)
		if !ok {
			return 0, false
		}
		wc := ws.edgeCostMemo(g, e, opt)
		site := ws.siteCostMemo(g, wi, opt)
		buf := math.Inf(1)
		for j, c := range cur {
			if j+1 < L {
				next[j+1] = c + wc
			}
			if nd := c + wc + site; nd < buf {
				buf = nd
			}
		}
		next[0] = buf
		cur, next = next, cur
	}
	u := math.Inf(1)
	for _, c := range cur {
		if c < u {
			u = c
		}
	}
	return u, true
}
