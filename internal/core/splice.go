package core

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// splicer is the reusable working memory of Stage 4's two-path splice. It
// supplies the splice's parent entries to an rtree.Builder framed on the
// bounding box of the old tree and the new path, which numbers and prunes
// the result. The zero value is ready to use; one splicer serves one
// goroutine at a time.
type splicer struct {
	b        rtree.Builder
	interior []bool    // per old node: on the ripped two-path's interior
	sinks    []geom.Pt // the old tree's sink tiles
	low      []geom.Pt // per node: the smallest (Y, X) tile of its subtree
	depth    []int     // per node: its depth below the root
}

// splice builds into nt (emptied first) the route tree rt with the
// interior of the two-path pick replaced by newPath, which runs head..tail
// inclusive. The parent entries are every surviving old edge, then the new
// path's first visits, with the tail taking its last predecessor; the
// builder inserts them in (Y, X) order with parents first and drops the
// sink-free stubs, keeping the survivors' relative order.
func (sp *splicer) splice(rt *rtree.Tree, pick []int, newPath []geom.Pt, nt *rtree.Tree) error {
	head := rt.Tile[pick[0]]
	tail := rt.Tile[pick[len(pick)-1]]
	if newPath[0] != head || newPath[len(newPath)-1] != tail {
		return fmt.Errorf("core: splice path endpoints %v..%v, want %v..%v", //rabid:allow allocfree cold error path: a reconnection that does not join the two-path's ends
			newPath[0], newPath[len(newPath)-1], head, tail)
	}
	b := &sp.b
	lo, hi := geom.Bounds(head, head, rt.Tile)
	if err := b.Frame(geom.Bounds(lo, hi, newPath)); err != nil {
		return err
	}
	n := rt.NumNodes()
	sp.interior = growBools(sp.interior, n) //rabid:allow allocfree inlined grow path: sized to the largest tree seen
	for _, v := range pick[1 : len(pick)-1] {
		sp.interior[v] = true
	}
	tailNode := pick[len(pick)-1]

	// The parent entries: every old edge except those into the dropped
	// interior and the tail, which re-parents below...
	for v := 1; v < n; v++ {
		if !sp.interior[v] && v != tailNode {
			b.Set(b.Cell(rt.Tile[v]), b.Cell(rt.Tile[rt.Parent[v]]))
		}
	}
	// ...then the new path: each tile hangs off its predecessor unless it
	// already has a parent (a self-crossing walk keeps its first visit) or
	// is the root; the tail always takes its last predecessor.
	root := b.Cell(rt.Tile[0])
	prev := b.Cell(head)
	for _, t := range newPath[1:] {
		c := b.Cell(t)
		if t == tail || (!b.Has(c) && c != root) {
			b.Set(c, prev)
		}
		prev = c
	}
	sp.sinks = sp.sinks[:0]
	for _, sn := range rt.SinkNode {
		sp.sinks = append(sp.sinks, rt.Tile[sn])
	}
	return b.Build(nt, rt.Tile[0], sp.sinks)
}

// keepsOwn reports whether splicing rt with one of its own two-paths,
// unchanged, rebuilds rt node for node, so that Stage 4 may keep rt when
// the reconnection search returns the ripped two-path. Such a splice hands
// the builder exactly rt's edges, and the builder numbers a tree in
// ascending (low, depth) order, where low(v) is the smallest tile of v's
// subtree in (Y, X) order: each node is inserted at the turn of that tile,
// after its ancestors. rt, a builder output, has no sink-free stub for the
// rebuild to prune, so it comes back unchanged exactly when its own
// numbering follows that order. A tree whose build pruned a stub (a
// reconnection that doubled back) can be numbered otherwise, and then the
// splice renumbers it.
func (sp *splicer) keepsOwn(rt *rtree.Tree) bool {
	n := rt.NumNodes()
	sp.depth = slices.Grow(sp.depth[:0], n)[:n] //rabid:allow allocfree inlined grow path: sized to the largest tree seen
	for v := 1; v < n; v++ {
		p := rt.Parent[v]
		if p < 0 || p >= v {
			return false // not parents-first, as every build is
		}
		sp.depth[v] = sp.depth[p] + 1
	}
	sp.low = append(sp.low[:0], rt.Tile...) //rabid:allow allocfree amortized grow path: sized to the largest tree seen
	for v := n - 1; v >= 1; v-- {
		if p := rt.Parent[v]; tileLess(sp.low[v], sp.low[p]) {
			sp.low[p] = sp.low[v]
		}
	}
	for v := 2; v < n; v++ {
		a, b := sp.low[v-1], sp.low[v]
		if !(tileLess(a, b) || a == b && sp.depth[v-1] < sp.depth[v]) {
			return false
		}
	}
	return true
}

// tileLess is the builder's cell order on tiles: by Y, then X.
func tileLess(a, b geom.Pt) bool {
	return a.Y < b.Y || a.Y == b.Y && a.X < b.X
}

// growBools returns s resized to n and cleared, reusing its storage when
// it fits.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}
