// Package steiner converts spanning trees into rectilinear Steiner trees by
// the paper's Stage-1 greedy overlap removal (Fig. 4) and embeds the result
// onto the tile grid as a routed tree (rtree.Tree).
package steiner

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/rtree"
	"repro/internal/spanning"
)

// Tree is a Steiner tree over tile coordinates: the input terminals first
// (in their original order), then any Steiner points introduced.
type Tree struct {
	Pts          []geom.Pt
	NumTerminals int
	Edges        [][2]int
}

// Wirelength returns the total Manhattan length of the tree edges.
func (t *Tree) Wirelength() int {
	total := 0
	for _, e := range t.Edges {
		total += t.Pts[e[0]].Manhattan(t.Pts[e[1]])
	}
	return total
}

// median3 returns the median of three ints.
func median3(a, b, c int) int {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// steinerPoint returns the 1-median (componentwise median) of three points,
// the optimal meeting point for the triple in the Manhattan metric.
func steinerPoint(u, a, b geom.Pt) geom.Pt {
	return geom.Pt{X: median3(u.X, a.X, b.X), Y: median3(u.Y, a.Y, b.Y)}
}

// Scratch is the reusable working memory of one net's Stage-1
// construction: the pin-tile dedupe, the spanning skeleton's arrays, the
// overlap removal's points, edges and incident-edge index, the embedding's
// breadth-first walk and the tree builder. With a warmed Scratch, a net's
// construction allocates only its output tree. The zero value is ready to
// use; one Scratch serves one goroutine at a time.
type Scratch struct {
	b        rtree.Builder
	span     spanning.Scratch
	st       Tree      // the Steiner tree under construction
	off, inc []int     // the edges at node v are inc[off[v]:off[v+1]], in edge order
	queue    []int     // the embedding's breadth-first queue
	visited  []bool    // per Steiner node: reached by the embedding
	sinks    []geom.Pt // the net's sink tiles, in sink order
}

// RemoveOverlaps greedily removes wirelength overlap from a spanning tree
// (Fig. 4): it repeatedly finds the pair of tree edges sharing an endpoint
// with the largest positive overlap, replaces them with three edges through
// the triple's median point, and stops when no pair improves. parent is the
// spanning-tree parent array over pts (parent[0] = -1).
func RemoveOverlaps(pts []geom.Pt, parent []int) *Tree {
	sc := &Scratch{}
	sc.st.Pts = append(sc.st.Pts, pts...)
	sc.removeOverlaps(parent)
	return &sc.st
}

// removeOverlaps is RemoveOverlaps over sc.st, whose Pts hold the
// terminals.
func (sc *Scratch) removeOverlaps(parent []int) {
	t := &sc.st
	t.NumTerminals = len(t.Pts)
	t.Edges = t.Edges[:0]
	for v, p := range parent {
		if p >= 0 {
			t.Edges = append(t.Edges, [2]int{p, v})
		}
	}
	for {
		gain, e1, e2, u, s := sc.bestOverlap()
		if gain <= 0 {
			return
		}
		t.apply(e1, e2, u, s)
	}
}

// bestOverlap scans all edge pairs sharing an endpoint — nodes in index
// order, each node's edges in edge order — and returns the first largest
// gain with the chosen edges, shared node, and Steiner point.
func (sc *Scratch) bestOverlap() (gain, e1, e2, u int, s geom.Pt) {
	t := &sc.st
	sc.index()
	gain, e1, e2, u = 0, -1, -1, -1
	for node := range t.Pts {
		inc := sc.inc[sc.off[node]:sc.off[node+1]]
		for i := 0; i < len(inc); i++ {
			for j := i + 1; j < len(inc); j++ {
				a := t.other(inc[i], node)
				b := t.other(inc[j], node)
				sp := steinerPoint(t.Pts[node], t.Pts[a], t.Pts[b])
				before := t.Pts[node].Manhattan(t.Pts[a]) + t.Pts[node].Manhattan(t.Pts[b])
				after := t.Pts[node].Manhattan(sp) + sp.Manhattan(t.Pts[a]) + sp.Manhattan(t.Pts[b])
				if g := before - after; g > gain {
					gain, e1, e2, u, s = g, inc[i], inc[j], node, sp
				}
			}
		}
	}
	return gain, e1, e2, u, s
}

// index rebuilds the incident-edge index of sc.st by a counting sort over
// the edges, which lands each node's edges in edge order.
func (sc *Scratch) index() {
	t := &sc.st
	n := len(t.Pts)
	sc.off = slices.Grow(sc.off[:0], n+1)[:n+1]
	clear(sc.off)
	for _, e := range t.Edges {
		sc.off[e[0]+1]++
		sc.off[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		sc.off[v+1] += sc.off[v]
	}
	sc.inc = slices.Grow(sc.inc[:0], sc.off[n])[:sc.off[n]]
	// Fill with off[v] as a cursor, then shift the cursors back: afterwards
	// off[v] is again the start of v's run.
	for i, e := range t.Edges {
		for _, v := range e {
			sc.inc[sc.off[v]] = i
			sc.off[v]++
		}
	}
	copy(sc.off[1:], sc.off[:n])
	sc.off[0] = 0
}

// other returns the endpoint of edge e that is not node.
func (t *Tree) other(e, node int) int {
	if t.Edges[e][0] == node {
		return t.Edges[e][1]
	}
	return t.Edges[e][0]
}

// apply replaces edges e1 = (u,a) and e2 = (u,b) with (u,s), (s,a), (s,b),
// reusing an existing node when s coincides with one.
func (t *Tree) apply(e1, e2, u int, s geom.Pt) {
	a := t.other(e1, u)
	b := t.other(e2, u)
	si := -1
	for _, cand := range [3]int{u, a, b} {
		if t.Pts[cand] == s {
			si = cand
			break
		}
	}
	if si == -1 {
		si = len(t.Pts)
		t.Pts = append(t.Pts, s)
	}
	// Remove e1, e2 (delete the higher index first).
	if e1 < e2 {
		e1, e2 = e2, e1
	}
	t.Edges = append(t.Edges[:e1], t.Edges[e1+1:]...)
	t.Edges = append(t.Edges[:e2], t.Edges[e2+1:]...)
	for _, pair := range [3][2]int{{u, si}, {si, a}, {si, b}} {
		if pair[0] != pair[1] {
			t.Edges = append(t.Edges, pair)
		}
	}
}

// horizFirst reports whether the L-shaped route from a to b runs its
// horizontal leg first. The bend orientation is chosen from the endpoint
// parity so that Stage-1 embeddings spread over both orientations.
func horizFirst(a, b geom.Pt) bool { return (a.X+a.Y+b.X+b.Y)%2 == 0 }

// lNext returns the tile after cur on the L-shaped route toward b: along
// the first leg's axis until aligned with b, then along the other.
func lNext(cur, b geom.Pt, hFirst bool) geom.Pt {
	if hFirst && cur.X != b.X || cur.Y == b.Y {
		cur.X += cmp.Compare(b.X, cur.X)
	} else {
		cur.Y += cmp.Compare(b.Y, cur.Y)
	}
	return cur
}

// LPath returns the tiles of an L-shaped route from a to b (inclusive).
func LPath(a, b geom.Pt) []geom.Pt {
	path := []geom.Pt{a}
	for cur, h := a, horizFirst(a, b); cur != b; {
		cur = lNext(cur, b, h)
		path = append(path, cur)
	}
	return path
}

// embed lays sc.st onto the tile grid: every tree edge becomes an L-shaped
// tile path, paths are grafted into a single routed tree (crossing an
// already-routed tile reconnects there), and sinkless stubs are pruned.
// Terminal 0 is the source. The edges are walked breadth-first from it, so
// each edge's upstream end is already embedded, tile by tile into the
// builder: a tile keeps the parent of its first visit, and the source
// never takes one. The net's sink tiles are sc.sinks.
func (sc *Scratch) embed() (*rtree.Tree, error) {
	t, b := &sc.st, &sc.b
	source := t.Pts[0]
	if err := b.Frame(geom.Bounds(source, source, t.Pts)); err != nil {
		return nil, err
	}
	root := b.Cell(source)
	sc.index()
	visited := slices.Grow(sc.visited[:0], len(t.Pts))[:len(t.Pts)]
	clear(visited)
	visited[0] = true
	queue := append(sc.queue[:0], 0)
	for k := 0; k < len(queue); k++ {
		n := queue[k]
		for _, e := range sc.inc[sc.off[n]:sc.off[n+1]] {
			m := t.other(e, n)
			if visited[m] {
				continue
			}
			visited[m] = true
			queue = append(queue, m)
			a, z := t.Pts[n], t.Pts[m]
			prev := b.Cell(a)
			if prev != root && !b.Has(prev) {
				return nil, fmt.Errorf("steiner: embedding anchor %v not in tree", a)
			}
			for cur, h := a, horizFirst(a, z); cur != z; {
				cur = lNext(cur, z, h)
				c := b.Cell(cur)
				if c != root && !b.Has(c) {
					b.Set(c, prev)
				}
				prev = c
			}
		}
	}
	sc.queue, sc.visited = queue, visited
	for n, ok := range visited {
		if !ok {
			return nil, fmt.Errorf("steiner: node %d (%v) disconnected", n, t.Pts[n])
		}
	}
	rt := &rtree.Tree{}
	if err := b.Build(rt, source, sc.sinks); err != nil {
		return nil, err
	}
	return rt, nil
}

// InitialRoute runs the complete Stage-1 construction for one net: the
// Prim–Dijkstra tradeoff tree over the net's distinct pin tiles, greedy
// overlap removal, and tile embedding.
func (sc *Scratch) InitialRoute(n *netlist.Net, alpha float64) (*rtree.Tree, error) {
	if err := sc.pins(n); err != nil {
		return nil, fmt.Errorf("steiner: net %d: %w", n.ID, err)
	}
	par, err := sc.span.Tree(sc.st.Pts, alpha)
	if err != nil {
		return nil, fmt.Errorf("steiner: net %d: %w", n.ID, err)
	}
	sc.removeOverlaps(par)
	rt, err := sc.embed()
	if err != nil {
		return nil, fmt.Errorf("steiner: net %d: %w", n.ID, err)
	}
	return rt, nil
}

// pins writes the net's sink tiles, in sink order, into sc.sinks and its
// distinct pin tiles into sc.st.Pts: the source, then the sinks in
// first-occurrence order. A tile counts as seen once it holds an entry of
// a builder frame over the pins' box, so the dedupe is O(sinks).
func (sc *Scratch) pins(n *netlist.Net) error {
	sc.sinks = sc.sinks[:0]
	for _, s := range n.Sinks {
		sc.sinks = append(sc.sinks, s.Tile)
	}
	src := n.Source.Tile
	if err := sc.b.Frame(geom.Bounds(src, src, sc.sinks)); err != nil {
		return err
	}
	sc.st.Pts = append(sc.st.Pts[:0], src)
	sc.b.Set(sc.b.Cell(src), 0)
	for _, p := range sc.sinks {
		if c := sc.b.Cell(p); !sc.b.Has(c) {
			sc.b.Set(c, 0)
			sc.st.Pts = append(sc.st.Pts, p)
		}
	}
	return nil
}
