// Package rtree represents a net's global route as a tree over tiles: every
// tile the route passes through is a node, edges join grid-adjacent tiles,
// node 0 is the source tile. This is the structure Stage 3's buffer
// insertion walks (one DP step per tile) and the delay model evaluates.
package rtree

import (
	"fmt"
	"slices"

	"repro/internal/geom"
)

// Tree is a rooted tree of tiles. Node 0 is the root (the tile containing
// the net's source). SinkNode[k] is the node index of the tile containing
// the net's k-th sink; several sinks may share a node, and a sink node may
// be internal (a route passing through it).
type Tree struct {
	Tile     []geom.Pt
	Parent   []int // Parent[0] == -1
	SinkNode []int

	// Child adjacency in compressed sparse row form, built lazily by
	// Children/PostOrderInto: the children of v are kids[off[v]:off[v+1]]
	// in increasing index order, and pos[w] is w's slot in kids. The three
	// are carved from one slice, which off's capacity keeps across Reset,
	// so a fresh tree pays one allocation for them and a recycled tree
	// rebuilds its adjacency without allocating.
	kids, off, pos []int
	built          bool
}

// FromParentMap assembles a Tree from a parent-pointer map produced by a
// router: parent[t] is the tile preceding t on its path to the source. The
// source's own entry, if any, is ignored. Sink tiles must be on the route
// (or be the source tile itself). The tree is not pruned; its nodes are
// numbered as Builder numbers them.
func FromParentMap(source geom.Pt, parent map[geom.Pt]geom.Pt, sinks []geom.Pt) (*Tree, error) {
	lo, hi := source, source
	for p, pp := range parent { //rabid:allow maprange the box is a min/max fold, the same in any visit order
		if p != source {
			lo, hi = geom.Bounds(lo, hi, []geom.Pt{p, pp})
		}
	}
	// A connected tree with k parent entries spans a box with
	// (w-1)+(h-1) <= k; any other map fails below anyway, so refuse it
	// before sizing arrays to its box.
	dw, dh, k := uint64(hi.X)-uint64(lo.X), uint64(hi.Y)-uint64(lo.Y), uint64(len(parent))
	if dw > k || dh > k-dw {
		return nil, fmt.Errorf("rtree: parent map spans %v..%v, too far apart for %d entries to connect", lo, hi, k)
	}
	var b Builder
	if err := b.Frame(lo, hi); err != nil {
		return nil, err
	}
	for p, pp := range parent { //rabid:allow maprange each key sets its own cell, and assemble inserts in cell order
		if p != source {
			b.Set(b.Cell(p), b.Cell(pp))
		}
	}
	t := &Tree{}
	if err := b.assemble(t, source, sinks); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset empties the tree in place, keeping the slice capacity, so its
// storage can back a new route (see route.Workspace.Recycle). The cached
// child adjacency is invalidated — it would describe the old shape — but
// its storage is kept for the next build.
func (t *Tree) Reset() {
	t.Tile = t.Tile[:0]
	t.Parent = t.Parent[:0]
	t.SinkNode = t.SinkNode[:0]
	t.built = false
}

// NumNodes returns the number of tiles spanned by the route.
func (t *Tree) NumNodes() int { return len(t.Tile) }

// NumEdges returns the number of tile-graph edges used (nodes - 1).
func (t *Tree) NumEdges() int { return len(t.Tile) - 1 }

// Children returns the child node indices of v, in increasing index order.
// The adjacency is built on first use and cached; callers must not mutate
// Parent afterwards, nor append to the returned slice.
func (t *Tree) Children(v int) []int {
	t.buildChildren()
	return t.kids[t.off[v]:t.off[v+1]:t.off[v+1]]
}

// buildChildren fills the CSR adjacency by a counting sort over Parent,
// which lands each node's children in increasing index order.
func (t *Tree) buildChildren() {
	if t.built {
		return
	}
	n := len(t.Parent)
	a := t.off[:cap(t.off)]
	if len(a) < 3*n+1 {
		a = make([]int, 3*n+1)
	}
	t.off, t.pos, t.kids = a[:n+1], a[n+1:2*n+1], a[2*n+1:3*n+1]
	clear(t.off)
	for v := 1; v < n; v++ {
		t.off[t.Parent[v]+1]++
	}
	for v := 0; v < n; v++ {
		t.off[v+1] += t.off[v]
	}
	// Fill with off[p] as a cursor, then shift the cursors back: afterwards
	// off[p] is again the start of p's run.
	for v := 1; v < n; v++ {
		p := t.Parent[v]
		t.kids[t.off[p]] = v
		t.pos[v] = t.off[p]
		t.off[p]++
	}
	for v := n; v > 0; v-- {
		t.off[v] = t.off[v-1]
	}
	t.off[0] = 0
	t.built = true
}

// PostOrder returns the node indices in post-order (children before
// parents), root last.
func (t *Tree) PostOrder() []int {
	return t.PostOrderInto(make([]int, 0, len(t.Tile)))
}

// PostOrderInto is PostOrder writing into buf (truncated first), so a
// caller-owned buffer makes the traversal allocation-free. The walk is the
// depth-first post-order, children visited in index order, done without a
// stack: from a finished node the next one is its next sibling's leftmost
// leaf, or else its parent.
func (t *Tree) PostOrderInto(buf []int) []int {
	order := buf[:0]
	if len(t.Tile) == 0 {
		return order
	}
	t.buildChildren()
	v := 0
	for {
		for t.off[v] < t.off[v+1] {
			v = t.kids[t.off[v]] // descend to the leftmost leaf
		}
		order = append(order, v)
		for {
			if v == 0 {
				return order
			}
			p := t.Parent[v]
			if k := t.pos[v] + 1; k < t.off[p+1] {
				v = t.kids[k] // next sibling: descend from there
				break
			}
			v = p
			order = append(order, v)
		}
	}
}

// IsSink reports whether node v carries at least one sink.
func (t *Tree) IsSink(v int) bool {
	for _, s := range t.SinkNode {
		if s == v {
			return true
		}
	}
	return false
}

// SinksAt returns how many sinks node v carries.
func (t *Tree) SinksAt(v int) int {
	n := 0
	for _, s := range t.SinkNode {
		if s == v {
			n++
		}
	}
	return n
}

// EdgePairs returns the (parent tile, child tile) pairs of all tree edges,
// in node order. Useful for registering wire usage on a tile graph.
func (t *Tree) EdgePairs() [][2]geom.Pt {
	out := make([][2]geom.Pt, 0, t.NumEdges())
	for v := 1; v < len(t.Tile); v++ {
		out = append(out, [2]geom.Pt{t.Tile[t.Parent[v]], t.Tile[v]})
	}
	return out
}

// Validate checks the structural invariants: a single root at node 0,
// parent-child tiles grid-adjacent, no duplicate tiles, all sink indices in
// range, and inGrid (when non-nil) satisfied by every tile.
func (t *Tree) Validate(inGrid func(geom.Pt) bool) error {
	if len(t.Tile) == 0 || len(t.Parent) != len(t.Tile) {
		return fmt.Errorf("rtree: malformed arrays (%d tiles, %d parents)", len(t.Tile), len(t.Parent))
	}
	if t.Parent[0] != -1 {
		return fmt.Errorf("rtree: node 0 must be the root")
	}
	seen := make(map[geom.Pt]bool, len(t.Tile))
	for v, p := range t.Parent {
		if seen[t.Tile[v]] {
			return fmt.Errorf("rtree: duplicate tile %v", t.Tile[v])
		}
		seen[t.Tile[v]] = true
		if inGrid != nil && !inGrid(t.Tile[v]) {
			return fmt.Errorf("rtree: tile %v outside grid", t.Tile[v])
		}
		if v == 0 {
			continue
		}
		if p < 0 || p >= len(t.Tile) {
			return fmt.Errorf("rtree: node %d parent %d out of range", v, p)
		}
		if p >= v {
			// FromParentMap and the routers always insert parents first;
			// relying on it keeps traversals simple.
			return fmt.Errorf("rtree: node %d has parent %d >= itself", v, p)
		}
		if t.Tile[v].Manhattan(t.Tile[p]) != 1 {
			return fmt.Errorf("rtree: nodes %d-%d tiles %v-%v not adjacent", v, p, t.Tile[v], t.Tile[p])
		}
	}
	for _, s := range t.SinkNode {
		if s < 0 || s >= len(t.Tile) {
			return fmt.Errorf("rtree: sink node %d out of range", s)
		}
	}
	return nil
}

// Prune returns a copy of the tree without the non-root nodes whose
// subtree carries no sink — the stubs a router that grafts paths can leave
// behind — keeping the survivors' order. The receiver is unchanged.
func (t *Tree) Prune() *Tree {
	nt := &Tree{Tile: slices.Clone(t.Tile), Parent: slices.Clone(t.Parent), SinkNode: slices.Clone(t.SinkNode)}
	new(Builder).prune(nt)
	return nt
}

// TwoPaths decomposes the tree into its two-paths: maximal paths whose
// interior nodes have degree two (one child, no sink), ending at the root,
// a sink node, or a branching (Steiner) node. Each path is returned as node
// indices from the upstream end (head, closer to the root) to the
// downstream end (tail), ordered by (head, first interior-or-tail node).
func (t *Tree) TwoPaths() [][]int {
	var ps TwoPathSet
	t.TwoPathsInto(&ps)
	paths := make([][]int, ps.Len())
	for k := range paths {
		paths[k] = ps.Path(k)
	}
	return paths
}

// TwoPathSet is a flat two-path decomposition, reusable across calls: path
// k is nodes[ends[k-1]:ends[k]] (ends[-1] taken as 0). The zero value is
// an empty set.
type TwoPathSet struct {
	nodes []int
	ends  []int
	sink  []bool // per-node sink flags, scratch
}

// Len returns the number of two-paths.
func (ps *TwoPathSet) Len() int { return len(ps.ends) }

// Path returns two-path k as node indices, head first. The slice aliases
// the set and is valid until its next fill.
func (ps *TwoPathSet) Path(k int) []int {
	lo := 0
	if k > 0 {
		lo = ps.ends[k-1]
	}
	return ps.nodes[lo:ps.ends[k]:ps.ends[k]]
}

// TwoPathsInto is TwoPaths writing into ps, reusing its storage. Endpoints
// are walked in index order and each one's children in index order, which
// already is TwoPaths' (head, next node) order — every child has one
// parent, so no two paths share that key and no sort is needed.
func (t *Tree) TwoPathsInto(ps *TwoPathSet) {
	ps.nodes, ps.ends = ps.nodes[:0], ps.ends[:0]
	n := len(t.Tile)
	if cap(ps.sink) < n {
		ps.sink = make([]bool, n) //rabid:allow allocfree grow path: sized to the largest tree seen
	}
	ps.sink = ps.sink[:n]
	for v := range ps.sink {
		ps.sink[v] = false
	}
	for _, s := range t.SinkNode {
		ps.sink[s] = true
	}
	t.buildChildren()
	endpoint := func(v int) bool {
		return v == 0 || t.off[v+1]-t.off[v] != 1 || ps.sink[v]
	}
	for v := 0; v < n; v++ {
		if !endpoint(v) {
			continue
		}
		for _, c := range t.kids[t.off[v]:t.off[v+1]] {
			ps.nodes = append(ps.nodes, v, c)
			for !endpoint(c) {
				c = t.kids[t.off[c]]
				ps.nodes = append(ps.nodes, c)
			}
			ps.ends = append(ps.ends, len(ps.nodes))
		}
	}
}

// PathTiles maps a node-index path to its tiles.
func (t *Tree) PathTiles(path []int) []geom.Pt {
	out := make([]geom.Pt, len(path))
	for i, v := range path {
		out[i] = t.Tile[v]
	}
	return out
}
