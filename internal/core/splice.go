package core

import (
	"fmt"

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
