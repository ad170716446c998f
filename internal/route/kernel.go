// Search kernels: the pop order of the Stage-4 search, BufferAwarePath (see
// DESIGN.md, "Search kernels"). Stage 2 — Reroute and RipupPass — is the
// paper's plain wavefront and always pops from the binary heap of
// workspace.go, whatever the kernel.
//
// Every search pops by the explicit total order (key, node) — see pqLess:
//
//   - heap: the key is the state's cost (the default).
//   - astar: the key is cost + h(tile), where h is the exact tile-level
//     reverse-Dijkstra distance to the head armed by armPathBound: an
//     admissible, consistent lower bound on the remaining cost. Popped
//     order differs; returned path costs do not.
package route

import (
	"fmt"
	"math"

	"repro/internal/tile"
)

// Kernel names accepted by Options.Kernel and Params.SearchKernel.
const (
	KernelHeap  = "heap"
	KernelAstar = "astar"
)

// Kernels lists the kernels by their canonical names (see CanonicalKernel).
func Kernels() []string { return []string{KernelHeap, KernelAstar} }

// CanonicalKernel maps a requested kernel name to the kernel that runs:
// "" and the retired "dial" (a bucket queue whose pops were the heap's, so
// journaled and HTTP requests naming it still run and key as heap) become
// "heap", "astar" stays, and any other name is an error. It is the one
// owner of kernel spellings: core, backend and the cache key all go
// through it.
func CanonicalKernel(name string) (string, error) {
	switch name {
	case "", KernelHeap, "dial":
		return KernelHeap, nil
	case KernelAstar:
		return KernelAstar, nil
	}
	return "", fmt.Errorf("route: unknown search kernel %q (want %q or %q)", name, KernelHeap, KernelAstar)
}

// astarState carries BufferAwarePath's remaining-cost lower bound: hd, the
// exact tile-level reverse-Dijkstra distance table armed by armPathBound
// (hs is its epoch stamp; a stale entry reads as unreachable) — the astar
// kernel's heuristic and the h of the incumbent bound. armPops and
// armRelax record the arming pass's queue work so the caller can fold it
// into the wavefront counters — the heuristic's cost is never hidden from
// the pops/relaxations accounting.
type astarState struct {
	hd       []float64
	hs       []uint64
	armPops  int
	armRelax int
}

// armPathBound arms BufferAwarePath's remaining-cost lower bound — the
// astar kernel's heuristic and the incumbent bound's h: an exact reverse
// Dijkstra from the head over the tile graph, under the search's own edge
// costs (edgeCost, so Eq. (1) or any non-negative Options.Weight) and the
// caller's blocked mask. The tile metric is a relaxation of
// the (tile, j) state search — it drops the buffer-spacing constraint and
// the non-negative Eq. (2) site costs but keeps the edge costs and the
// blocked semantics exactly — so hd[t] is an admissible, consistent lower
// bound on any state (t, j)'s true remaining cost: h(v) <= wc + h(w) is
// the triangle inequality of the relaxed metric, and a buffer placement
// stays in the same tile at non-negative cost. Tiles the reverse scan
// never reaches read as +Inf, which is itself exact: no forward path from
// them can reach the head either.
//
// The scan stops at the first pop whose distance exceeds limit (+Inf scans
// everything). Every tile not yet settled is then at least that far from
// the head, and any value pathBound reads there — +Inf, or a tentative
// distance above the true one — exceeds limit too, so a caller that prunes
// at limit prunes such a tile exactly as the full table would.
//
// Usage is static within one call, so the scan is deterministic; it also
// pre-warms the per-edge cost memo the main search reads. The arming queue
// work is recorded in armPops / armRelax and folded into the wavefront
// counters by the caller.
func (ws *Workspace) armPathBound(g *tile.Graph, head int, blocked []bool, opt *Options, limit float64) {
	a := &ws.astar
	nt := g.NumTiles()
	if len(a.hd) < nt {
		a.hd = make([]float64, nt) //rabid:allow allocfree cold grow path: the heuristic table reallocates only when the grid outgrows the workspace
		a.hs = make([]uint64, nt)  //rabid:allow allocfree cold grow path: the heuristic table reallocates only when the grid outgrows the workspace
	}
	a.armPops, a.armRelax = 0, 0
	ep := ws.epoch
	a.hd[head] = 0
	a.hs[head] = ep
	ws.q = ws.q[:0]
	ws.pushPQ(pqItem{head, 0})
	for len(ws.q) > 0 {
		it := ws.popPQ()
		a.armPops++
		u := it.node
		if it.key > a.hd[u] {
			continue // stale entry, superseded by a better push
		}
		if it.key > limit {
			break
		}
		nbrs, edges := g.Adjacency(u)
		for x, v32 := range nbrs {
			v := int(v32)
			// Expanding v would stand for a forward move into v, which the
			// main search permits only into unblocked tiles (the head, the
			// scan's source, excepted); it never reads h at a blocked tile.
			if blocked != nil && blocked[v] {
				continue
			}
			a.armRelax++
			d := it.key + ws.edgeCostMemo(g, int(edges[x]), opt)
			if a.hs[v] != ep || d < a.hd[v] {
				a.hs[v] = ep
				a.hd[v] = d
				ws.pushPQ(pqItem{v, d})
			}
		}
	}
	ws.q = ws.q[:0] // a capped scan leaves entries behind; the main search starts empty
}

// pathBound is the BufferAwarePath lower bound for tile t: the exact
// relaxed-metric distance armed by armPathBound. Consistency of that
// metric (see armPathBound) means the first head-state pop under the astar
// kernel carries the exact same optimal distance the heap kernel returns.
func (ws *Workspace) pathBound(t int) float64 {
	a := &ws.astar
	if a.hs[t] != ws.epoch {
		return math.Inf(1) // the head is unreachable from t
	}
	return a.hd[t]
}
