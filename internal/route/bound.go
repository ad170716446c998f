// The remaining-cost lower bound of the Stage-4 search, BufferAwarePath
// (see DESIGN.md "Bounded Stage-4 search"): an exact tile-level reverse
// Dijkstra to the head, armed per call, which the incumbent bound adds to a
// state's cost before comparing it against the incumbent's.
package route

import (
	"math"

	"repro/internal/tile"
)

// headDist holds BufferAwarePath's remaining-cost lower bound h: dist, the
// exact tile-level reverse-Dijkstra distance to the head armed by
// armPathBound (stamp is its epoch stamp; a stale entry reads as
// unreachable). armPops and armRelax record the arming pass's queue work
// so the caller can fold it into the wavefront counters — the bound's cost
// is never hidden from the pops/relaxations accounting.
type headDist struct {
	dist     []float64
	stamp    []uint64
	armPops  int
	armRelax int
}

// armPathBound arms BufferAwarePath's remaining-cost lower bound: an exact
// reverse Dijkstra from the head over the tile graph, under the search's
// own edge costs (edgeCost, so Eq. (1) or any non-negative Options.Weight)
// and the caller's blocked mask. The tile metric is a relaxation of
// the (tile, j) state search — it drops the buffer-spacing constraint and
// the non-negative Eq. (2) site costs but keeps the edge costs and the
// blocked semantics exactly — so dist[t] is an admissible lower bound on
// any state (t, j)'s true remaining cost, and a buffer placement stays in
// the same tile at non-negative cost. Tiles the reverse scan never reaches
// read as +Inf, which is itself exact: no forward path from them can reach
// the head either.
//
// The scan stops at the first pop whose distance exceeds limit. Every tile
// not yet settled is then at least that far from the head, and any value
// pathBound reads there — +Inf, or a tentative distance above the true
// one — exceeds limit too, so a caller that prunes at limit prunes such a
// tile exactly as the full table would.
//
// Usage is static within one call, so the scan is deterministic; it also
// pre-warms the per-edge cost memo the main search reads. The arming queue
// work is recorded in armPops / armRelax and folded into the wavefront
// counters by the caller.
func (ws *Workspace) armPathBound(g *tile.Graph, head int, blocked []bool, opt *Options, limit float64) {
	h := &ws.h
	nt := g.NumTiles()
	if len(h.dist) < nt {
		h.dist = make([]float64, nt) //rabid:allow allocfree cold grow path: the bound table reallocates only when the grid outgrows the workspace
		h.stamp = make([]uint64, nt) //rabid:allow allocfree cold grow path: the bound table reallocates only when the grid outgrows the workspace
	}
	h.armPops, h.armRelax = 0, 0
	ep := ws.epoch
	h.dist[head] = 0
	h.stamp[head] = ep
	ws.q = ws.q[:0]
	ws.pushPQ(pqItem{head, 0})
	for len(ws.q) > 0 {
		it := ws.popPQ()
		h.armPops++
		u := it.node
		if it.key > h.dist[u] {
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
			h.armRelax++
			d := it.key + ws.edgeCostMemo(g, int(edges[x]), opt)
			if h.stamp[v] != ep || d < h.dist[v] {
				h.stamp[v] = ep
				h.dist[v] = d
				ws.pushPQ(pqItem{v, d})
			}
		}
	}
	ws.q = ws.q[:0] // a capped scan leaves entries behind; the main search starts empty
}

// pathBound is the BufferAwarePath lower bound for tile t: the relaxed-
// metric distance to the head armed by armPathBound.
func (ws *Workspace) pathBound(t int) float64 {
	if ws.h.stamp[t] != ws.epoch {
		return math.Inf(1) // the head is unreachable from t
	}
	return ws.h.dist[t]
}
