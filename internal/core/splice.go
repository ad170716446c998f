package core

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// splicer is the reusable working memory of Stage 4's two-path splice.
// Tiles are addressed as cells of the bounding box of the old tree and the
// new path, numbered row-major — so ascending cell order is the (Y, X)
// order rtree.FromParentMap sorts its keys into — and every per-cell array
// is epoch-stamped, so a splice touches only the cells it uses. The zero
// value is ready to use; one splicer serves one goroutine at a time.
type splicer struct {
	x0, y0, w int    // bounding-box origin and width
	ep        uint64 // bumped per splice; stamps compare against it
	pstamp    []uint64
	par       []int32 // cell -> parent cell, valid while pstamp == ep
	nstamp    []uint64
	node      []int32 // cell -> node index, valid while nstamp == ep
	cells     []int32 // cells with a parent entry
	stack     []int32 // pending chain of the parent-first insertion
	interior  []bool  // per old node: on the ripped two-path's interior
	keep      []bool  // per new node: survives pruning
	remap     []int   // per new node: index after pruning
}

// cell maps a tile to its bounding-box cell.
func (sp *splicer) cell(p geom.Pt) int32 {
	return int32((p.Y-sp.y0)*sp.w + (p.X - sp.x0)) //rabid:allow narrowcast the box spans grid tiles, and tile.New caps the grid at MaxInt32 tiles
}

// tileAt is the inverse of cell.
func (sp *splicer) tileAt(c int32) geom.Pt {
	return geom.Pt{X: int(c)%sp.w + sp.x0, Y: int(c)/sp.w + sp.y0}
}

// frame sizes the cell arrays to the bounding box of rt's tiles and path
// and opens a new epoch.
func (sp *splicer) frame(rt *rtree.Tree, path []geom.Pt) {
	x0, y0, x1, y1 := rt.Tile[0].X, rt.Tile[0].Y, rt.Tile[0].X, rt.Tile[0].Y
	extend := func(p geom.Pt) {
		x0, x1 = min(x0, p.X), max(x1, p.X)
		y0, y1 = min(y0, p.Y), max(y1, p.Y)
	}
	for _, p := range rt.Tile {
		extend(p)
	}
	for _, p := range path {
		extend(p)
	}
	sp.x0, sp.y0, sp.w = x0, y0, x1-x0+1
	if n := sp.w * (y1 - y0 + 1); len(sp.pstamp) < n {
		// Fresh stamps are zero, which no epoch equals.
		sp.pstamp = make([]uint64, n)
		sp.par = make([]int32, n)
		sp.nstamp = make([]uint64, n)
		sp.node = make([]int32, n)
	}
	sp.ep++
}

// splice builds into nt (emptied first) the route tree rt with the
// interior of the two-path pick replaced by newPath, which runs head..tail
// inclusive. The result is node for node what rtree.FromParentMap followed
// by Prune returns for the parent map "every surviving old edge, then the
// new path's first visits": the entries are the same, the cells are
// inserted in the same (Y, X) order with parents first, and pruning drops
// the same sink-free stubs while keeping the survivors' relative order.
func (sp *splicer) splice(rt *rtree.Tree, pick []int, newPath []geom.Pt, nt *rtree.Tree) error {
	head := rt.Tile[pick[0]]
	tail := rt.Tile[pick[len(pick)-1]]
	if newPath[0] != head || newPath[len(newPath)-1] != tail {
		return fmt.Errorf("core: splice path endpoints %v..%v, want %v..%v", //rabid:allow allocfree cold error path: a reconnection that does not join the two-path's ends
			newPath[0], newPath[len(newPath)-1], head, tail)
	}
	sp.frame(rt, newPath)
	n := rt.NumNodes()
	sp.interior = growBools(sp.interior, n) //rabid:allow allocfree inlined grow path: sized to the largest tree seen
	for _, v := range pick[1 : len(pick)-1] {
		sp.interior[v] = true
	}
	tailNode := pick[len(pick)-1]

	// The parent entries: every old edge except those into the dropped
	// interior and the tail, which re-parents below...
	cells := sp.cells[:0]
	for v := 1; v < n; v++ {
		if sp.interior[v] || v == tailNode {
			continue
		}
		c := sp.cell(rt.Tile[v])
		sp.pstamp[c], sp.par[c] = sp.ep, sp.cell(rt.Tile[rt.Parent[v]])
		cells = append(cells, c)
	}
	// ...then the new path: each tile hangs off its predecessor unless it
	// already has a parent (a self-crossing walk keeps its first visit) or
	// is the root; the tail always takes its last predecessor.
	root := sp.cell(rt.Tile[0])
	prev := sp.cell(head)
	for _, t := range newPath[1:] {
		c := sp.cell(t)
		if t == tail || (sp.pstamp[c] != sp.ep && c != root) {
			if sp.pstamp[c] != sp.ep {
				cells = append(cells, c)
			}
			sp.pstamp[c], sp.par[c] = sp.ep, prev
		}
		prev = c
	}
	slices.Sort(cells)
	sp.cells = cells

	// Insert in ascending cell order, parents first: climb to the nearest
	// inserted ancestor, then unwind. The error cases are FromParentMap's,
	// plus a cycle guard where its recursion would not terminate.
	nt.Reset()
	nt.Tile = append(nt.Tile, rt.Tile[0])
	nt.Parent = append(nt.Parent, -1)
	sp.nstamp[root], sp.node[root] = sp.ep, 0
	stack := sp.stack[:0]
	for _, c := range cells {
		stack = stack[:0]
		x := c
		for sp.nstamp[x] != sp.ep {
			if sp.pstamp[x] != sp.ep {
				return fmt.Errorf("rtree: tile %v has no parent and is not the source", sp.tileAt(x)) //rabid:allow allocfree cold error path: a corrupt splice
			}
			if pp, p := sp.tileAt(sp.par[x]), sp.tileAt(x); pp.Manhattan(p) != 1 {
				return fmt.Errorf("rtree: parent %v not adjacent to %v", pp, p) //rabid:allow allocfree cold error path: a corrupt splice
			}
			if len(stack) == len(cells) {
				return fmt.Errorf("core: splice parent chain through %v is cyclic", sp.tileAt(c)) //rabid:allow allocfree cold error path: a corrupt splice
			}
			stack = append(stack, x)
			x = sp.par[x]
		}
		pi := int(sp.node[x])
		for k := len(stack) - 1; k >= 0; k-- {
			u := stack[k]
			ni := len(nt.Tile)
			nt.Tile = append(nt.Tile, sp.tileAt(u))
			nt.Parent = append(nt.Parent, pi)
			sp.nstamp[u], sp.node[u] = sp.ep, int32(ni) //rabid:allow narrowcast node count <= box cells <= MaxInt32
			pi = ni
		}
	}
	sp.stack = stack
	for _, sn := range rt.SinkNode {
		c := sp.cell(rt.Tile[sn])
		if sp.nstamp[c] != sp.ep {
			return fmt.Errorf("rtree: sink tile %v not on route", rt.Tile[sn]) //rabid:allow allocfree cold error path: a corrupt splice
		}
		nt.SinkNode = append(nt.SinkNode, int(sp.node[c]))
	}
	sp.prune(nt)
	return nil
}

// prune removes, in place, every non-root node whose subtree carries no
// sink — exactly the nodes rtree.Prune peels — and renumbers the survivors
// densely in their original order. Parents precede children (insertion is
// parents first), so one reverse sweep marks the survivors and one forward
// sweep compacts them.
func (sp *splicer) prune(nt *rtree.Tree) {
	m := nt.NumNodes()
	keep := growBools(sp.keep, m) //rabid:allow allocfree inlined grow path: sized to the largest tree seen
	sp.keep = keep
	keep[0] = true
	for _, s := range nt.SinkNode {
		keep[s] = true
	}
	for v := m - 1; v >= 1; v-- {
		if keep[v] {
			keep[nt.Parent[v]] = true
		}
	}
	if cap(sp.remap) < m {
		sp.remap = make([]int, m) //rabid:allow allocfree grow path: sized to the largest tree seen
	}
	remap := sp.remap[:m]
	k := 0
	for v := 0; v < m; v++ {
		if !keep[v] {
			continue
		}
		remap[v] = k
		nt.Tile[k] = nt.Tile[v]
		if v == 0 {
			nt.Parent[k] = -1
		} else {
			nt.Parent[k] = remap[nt.Parent[v]]
		}
		k++
	}
	nt.Tile, nt.Parent = nt.Tile[:k], nt.Parent[:k]
	for i, s := range nt.SinkNode {
		nt.SinkNode[i] = remap[s]
	}
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
