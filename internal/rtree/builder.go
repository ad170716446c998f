package rtree

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// Builder assembles route trees from parent entries, and is the one place
// that numbers tree nodes. Every route producer builds through it: the
// Stage-1 embedding, FromParentMap, the Stage-2 traceback and the Stage-4
// splice. Downstream tie-breaking (the buffer DP's argmin, the two-path pick
// order, the mcf pool's exact identity) follows that numbering.
//
// Entries live in per-cell arrays over a box of tiles, cells numbered
// row-major, so ascending cell order is (Y, X) order. Every array is
// epoch-stamped, so a build touches only the cells it uses. The zero value
// is ready to use; one Builder serves one goroutine at a time.
type Builder struct {
	x0, y0, w, h int    // box origin and extent
	ep           uint64 // bumped by Frame; stamps compare against it
	pstamp       []uint64
	par          []int32 // cell -> parent cell, valid while pstamp == ep
	nstamp       []uint64
	node         []int32 // cell -> node index, valid while nstamp == ep
	cells        []int32 // cells with a parent entry
	stack        []int32 // pending chain of the parent-first insertion
	keep         []bool  // per node: survives pruning
	remap        []int   // per node: index after pruning
}

// Frame opens a new epoch over the box lo..hi (inclusive), dropping every
// entry. It is the builder's allocation sink: the per-cell arrays are sized
// to the largest box seen (the per-entry and per-node lists grow by appends
// to the largest build seen). A box of more than MaxInt32 cells is refused,
// so cells and node indices fit in int32.
func (b *Builder) Frame(lo, hi geom.Pt) error {
	// The extents are computed in uint64, exact for any pair of ints.
	dw, dh := uint64(hi.X)-uint64(lo.X), uint64(hi.Y)-uint64(lo.Y)
	if hi.X < lo.X || hi.Y < lo.Y || dw >= math.MaxInt32 || dh >= math.MaxInt32 || (dw+1)*(dh+1) > math.MaxInt32 {
		return fmt.Errorf("rtree: box %v..%v is empty or over %d cells", lo, hi, math.MaxInt32)
	}
	b.x0, b.y0, b.w, b.h = lo.X, lo.Y, int(dw)+1, int(dh)+1
	if n := b.w * b.h; len(b.pstamp) < n {
		// Fresh stamps are zero, which no epoch equals.
		b.pstamp = make([]uint64, n)
		b.par = make([]int32, n)
		b.nstamp = make([]uint64, n)
		b.node = make([]int32, n)
	}
	b.ep++
	b.cells = b.cells[:0]
	return nil
}

// Cell maps a tile inside the box to its cell.
func (b *Builder) Cell(p geom.Pt) int32 {
	return int32((p.Y-b.y0)*b.w + (p.X - b.x0)) //rabid:allow narrowcast Frame caps the box at MaxInt32 cells; a grid's box is at most the grid, which tile.New caps at MaxInt32 tiles
}

// tileAt is the inverse of Cell.
func (b *Builder) tileAt(c int32) geom.Pt {
	return geom.Pt{X: int(c)%b.w + b.x0, Y: int(c)/b.w + b.y0}
}

// Has reports whether cell c has a parent entry this epoch.
func (b *Builder) Has(c int32) bool { return b.pstamp[c] == b.ep }

// Set records (or overwrites) cell c's parent entry.
func (b *Builder) Set(c, parent int32) {
	if b.pstamp[c] != b.ep {
		b.pstamp[c] = b.ep
		b.cells = append(b.cells, c)
	}
	b.par[c] = parent
}

// Build fills nt (reset first) with the tree of the entries rooted at
// root: the root is node 0, then each entry in ascending cell order, after
// its parent chain. It then drops every non-root node whose subtree
// carries no sink, keeping the survivors' order. sinks must lie on the
// route; SinkNode[k] is sinks[k]'s node. A chain that ends off the root, a
// parent not adjacent to its child, a cycle, or a sink off the route is an
// error.
func (b *Builder) Build(nt *Tree, root geom.Pt, sinks []geom.Pt) error {
	if err := b.assemble(nt, root, sinks); err != nil {
		return err
	}
	b.prune(nt)
	return nil
}

// assemble is Build without the prune. A sink outside the box is not on
// the route. A fresh tree's arrays are sized once from the entry count; a
// recycled one grows by appends, whose doubling leaves room for the next
// trees it hosts.
func (b *Builder) assemble(nt *Tree, root geom.Pt, sinks []geom.Pt) error {
	cells := b.cells
	slices.Sort(cells)
	nt.Reset()
	if cap(nt.Tile) == 0 {
		nt.Tile = make([]geom.Pt, 0, 1+len(cells)) //rabid:allow allocfree fresh tree only: a recycled carcass reuses its storage
		nt.Parent = make([]int, 0, 1+len(cells))   //rabid:allow allocfree fresh tree only: a recycled carcass reuses its storage
		nt.SinkNode = make([]int, 0, len(sinks))   //rabid:allow allocfree fresh tree only: a recycled carcass reuses its storage
	}
	rc := b.Cell(root)
	nt.Tile = append(nt.Tile, root)
	nt.Parent = append(nt.Parent, -1)
	b.nstamp[rc], b.node[rc] = b.ep, 0
	// Climb to the nearest inserted ancestor, then unwind.
	stack := b.stack[:0]
	for _, c := range cells {
		stack = stack[:0]
		x := c
		for b.nstamp[x] != b.ep {
			if b.pstamp[x] != b.ep {
				return fmt.Errorf("rtree: tile %v has no parent and is not the source", b.tileAt(x)) //rabid:allow allocfree cold error path: a corrupt parent entry
			}
			if pp, p := b.tileAt(b.par[x]), b.tileAt(x); pp.Manhattan(p) != 1 {
				return fmt.Errorf("rtree: parent %v not adjacent to %v", pp, p) //rabid:allow allocfree cold error path: a corrupt parent entry
			}
			if len(stack) == len(cells) {
				return fmt.Errorf("rtree: parent chain through %v is cyclic", b.tileAt(c)) //rabid:allow allocfree cold error path: a corrupt parent entry
			}
			stack = append(stack, x)
			x = b.par[x]
		}
		pi := int(b.node[x])
		for k := len(stack) - 1; k >= 0; k-- {
			u := stack[k]
			ni := len(nt.Tile)
			nt.Tile = append(nt.Tile, b.tileAt(u))
			nt.Parent = append(nt.Parent, pi)
			b.nstamp[u], b.node[u] = b.ep, int32(ni) //rabid:allow narrowcast node count <= box cells <= MaxInt32
			pi = ni
		}
	}
	b.stack = stack
	for _, s := range sinks {
		x, y := s.X-b.x0, s.Y-b.y0
		if x < 0 || x >= b.w || y < 0 || y >= b.h || b.nstamp[b.Cell(s)] != b.ep {
			return fmt.Errorf("rtree: sink tile %v not on route", s) //rabid:allow allocfree cold error path: a sink off the route
		}
		nt.SinkNode = append(nt.SinkNode, int(b.node[b.Cell(s)]))
	}
	return nil
}

// prune removes, in place, every non-root node whose subtree carries no
// sink, and renumbers the survivors densely in their original order.
// Parents precede children, so one reverse sweep marks the survivors and
// one forward sweep compacts them.
func (b *Builder) prune(nt *Tree) {
	m := nt.NumNodes()
	if m == 0 {
		return
	}
	if cap(b.keep) < m {
		b.keep = make([]bool, m) //rabid:allow allocfree grow path: sized to the largest tree seen
		b.remap = make([]int, m) //rabid:allow allocfree grow path: sized to the largest tree seen
	}
	keep, remap := b.keep[:m], b.remap[:m]
	clear(keep)
	keep[0] = true
	for _, s := range nt.SinkNode {
		keep[s] = true
	}
	for v := m - 1; v >= 1; v-- {
		if keep[v] {
			keep[nt.Parent[v]] = true
		}
	}
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
