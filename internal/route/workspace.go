// Workspace: reusable scratch memory for the router's hot loops. One
// Workspace serves one goroutine at a time; core owns one per run, and the
// server recycles them across requests through the Pool. Every kernel
// entry point (Reroute, RipupPass, ReduceCongestionCtx, BufferAwarePath)
// accepts a *Workspace and tolerates nil by allocating a private one, so
// one-shot callers and tests need no ceremony.
//
// The arrays are epoch-stamped: each kernel call bumps a generation
// counter, and a per-entry stamp records which call last wrote the entry.
// Reads treat a stale stamp as "unset" (infinite key, no predecessor), so
// clearing between calls is O(entries touched), not O(grid). Stamps are
// uint64 — at daemon rates a 32-bit counter could wrap within hours and
// resurrect stale labels. Clearing a stamp to zero is always safe because
// epochs start at one.
package route

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// pqItem is a priority-queue entry for the wavefront.
type pqItem struct {
	node int
	key  float64
}

// Workspace holds the router's reusable per-call state. The zero value is
// ready to use (arrays grow on first call); see NewWorkspace.
type Workspace struct {
	epoch uint64 // bumped by begin; entry stamps compare against this

	// Wavefront state, one entry per tile (Reroute). BufferAwarePath
	// borrows stamp, key and pred as its per-tile dominance record.
	stamp    []uint64  // generation stamp for key/pathCost/pred/done
	key      []float64 // PD selection key
	pathCost []float64 // accumulated edge cost from source
	pred     []int32   // predecessor tile
	done     []bool

	wantStamp []uint64 // stamp == epoch marks a sink tile not yet reached

	// Traceback state: the tree builder, framed on the grid so that a
	// cell is a tile index, and the net's sink tiles.
	tb    rtree.Builder
	sinks []geom.Pt

	// Per-call memoized edge costs (Reroute and BufferAwarePath evaluate
	// each edge many times; usage and Options.Weight are static within one
	// call) — see edgeCostMemo.
	ecStamp []uint64
	ec      []float64

	// Wavefront heap (concrete pqItem slice, no interface boxing), shared
	// by every search.
	q []pqItem

	// BufferAwarePath's remaining-cost lower bound (see bound.go).
	h headDist

	// (tile, j) search state, one entry per state (BufferAwarePath).
	sStamp []uint64
	sDist  []float64
	sPred  []int32
	sDone  []bool
	path   []geom.Pt // traceback result buffer, returned to the caller
	incRow []float64 // the incumbent pass's two recurrence rows (2*L)

	blocked []bool    // Stage-4 blocked-tile mask, managed by the caller
	heat    []float64 // per-pass congestion snapshot buffer

	// Dead route trees donated by RipupPass (see Recycle); their storage
	// backs the next Reroute's tree, making the steady state alloc-free.
	free []*rtree.Tree

	// Per-call memoized Eq. (2) site costs, one entry per tile
	// (BufferAwarePath and its incumbent pass price each tile's buffer
	// move many times; buffer usage and demand are static within one call)
	// — see siteCostMemo.
	scStamp []uint64
	sc      []float64
}

// NewWorkspace returns an empty Workspace. Arrays are sized lazily by the
// first kernel call, so constructing one is cheap.
func NewWorkspace() *Workspace { return &Workspace{} }

// begin opens a new kernel call: bumps the epoch (invalidating all stamped
// entries at once), resets the heap, and sizes the per-edge memo table.
func (ws *Workspace) begin(numEdges int) {
	ws.epoch++
	ws.q = ws.q[:0]
	if len(ws.ecStamp) < numEdges {
		ws.ecStamp = make([]uint64, numEdges)
		ws.ec = make([]float64, numEdges)
	}
}

// growTiles sizes the per-tile arrays. Freshly allocated entries carry
// stamp zero, which no epoch ever equals, so growth needs no fill.
func (ws *Workspace) growTiles(n int) {
	if len(ws.stamp) >= n {
		return
	}
	ws.stamp = make([]uint64, n)
	ws.key = make([]float64, n)
	ws.pathCost = make([]float64, n)
	ws.pred = make([]int32, n)
	ws.done = make([]bool, n)
	ws.wantStamp = make([]uint64, n)
}

// growStates sizes the (tile, j) arrays of the Stage-4 search.
func (ws *Workspace) growStates(n int) {
	if len(ws.sStamp) >= n {
		return
	}
	ws.sStamp = make([]uint64, n)
	ws.sDist = make([]float64, n)
	ws.sPred = make([]int32, n)
	ws.sDone = make([]bool, n)
}

// growSites sizes the per-tile site-cost memo; like growTiles, growth
// needs no fill.
func (ws *Workspace) growSites(n int) {
	if len(ws.scStamp) >= n {
		return
	}
	ws.scStamp = make([]uint64, n)
	ws.sc = make([]float64, n)
}

// --- wavefront heap ----------------------------------------------------
//
// pushPQ and popPQ are container/heap.Push and container/heap.Pop
// specialized to []pqItem, with one deliberate strengthening: the
// comparison is the explicit total order (key, node) rather than key
// alone.

// pqLess is the wavefront's total order: by key, then by node index.
// Equal-key pops therefore surface the smallest node index first, so the
// pop sequence, and with it every route tie-break, is a function of the
// pushed items alone, not of the heap's shape or push history. A node is
// pushed again only when its key strictly improves, so no two live entries
// are ever fully equal and the order is strict.
func pqLess(a, b pqItem) bool {
	return a.key < b.key || (a.key == b.key && a.node < b.node) //rabid:allow floateq tie-break on exact key equality is the point: equal keys fall through to the node index, never to float tolerance
}

func (ws *Workspace) pushPQ(it pqItem) {
	q := append(ws.q, it)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !pqLess(q[j], q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	ws.q = q
}

func (ws *Workspace) popPQ() pqItem {
	q := ws.q
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && pqLess(q[j2], q[j1]) {
			j = j2 // right child
		}
		if !pqLess(q[j], q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	ws.q = q[:n]
	return q[n]
}

// --- tree recycling ----------------------------------------------------

// TakeTree returns a recycled tree carcass, or a fresh one. Besides the
// router, Stage 4's two-path splice builds its trees into these carcasses.
func (ws *Workspace) TakeTree() *rtree.Tree {
	if n := len(ws.free); n > 0 {
		t := ws.free[n-1]
		ws.free[n-1] = nil
		ws.free = ws.free[:n-1]
		return t
	}
	return &rtree.Tree{}
}

// Recycle donates a dead route tree's storage to the workspace. The caller
// must hold the only reference: RipupPass donates each ripped-up tree once
// its replacement is registered, which is what makes a warmed Workspace's
// Reroute allocation-free. Never recycle a tree that is still reachable
// (e.g. one held in a Result or a cache).
func (ws *Workspace) Recycle(rt *rtree.Tree) {
	if ws == nil || rt == nil {
		return
	}
	rt.Reset()
	ws.free = append(ws.free, rt)
}

// BlockedMask returns the workspace's blocked-tile mask sized to n tiles.
// The mask is zero on first use; afterwards the caller owns the clearing
// discipline — set the entries you need, run the search, unset the same
// entries — so successive calls stay O(entries touched).
func (ws *Workspace) BlockedMask(n int) []bool {
	if cap(ws.blocked) < n {
		ws.blocked = make([]bool, n)
	}
	ws.blocked = ws.blocked[:n]
	return ws.blocked
}

// --- pool ---------------------------------------------------------------

// Pool is a concurrency-safe recycler of Workspaces for reuse across runs;
// the planning server keeps one per process so steady-state requests route
// without growing fresh scratch arrays. A nil *Pool is valid: Get returns
// a fresh Workspace and Put discards. Construct with NewPool.
type Pool struct{ p sync.Pool }

// NewPool returns an empty Pool.
func NewPool() *Pool {
	pl := &Pool{}
	pl.p.New = func() any { return NewWorkspace() }
	return pl
}

// Get returns a pooled or fresh Workspace.
func (pl *Pool) Get() *Workspace {
	if pl == nil {
		return NewWorkspace()
	}
	return pl.p.Get().(*Workspace)
}

// Put returns a Workspace to the pool. The workspace must not be used
// after Put.
func (pl *Pool) Put(ws *Workspace) {
	if pl == nil || ws == nil {
		return
	}
	pl.p.Put(ws)
}
