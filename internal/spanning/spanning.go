// Package spanning builds Prim–Dijkstra tradeoff spanning trees (Alpert,
// Hu, Huang, Kahng, Karger, TCAD 1995), the Stage-1 construction of the
// paper: a hybrid between Prim's minimum spanning tree and Dijkstra's
// shortest-path tree controlled by a parameter alpha in [0,1]. alpha = 0
// yields the MST (minimum wirelength); alpha = 1 yields the shortest-path
// tree (minimum radius); the paper's experiments use alpha = 0.4.
package spanning

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// Scratch is the reusable memory of Tree. The zero value is ready to use;
// one Scratch serves one goroutine at a time.
type Scratch struct {
	parent, best []int     // tree parent, best attachment parent
	pathlen, key []float64 // tree path length from source, best attachment cost
	inTree       []bool
}

// Tree computes the Prim–Dijkstra tradeoff tree over the given terminals in
// the Manhattan metric. pts[0] is the source. It returns parent[i] = the
// index of node i's parent (parent[0] = -1).
//
// A non-tree node v is attached greedily, minimizing
//
//	alpha * pathlen(u) + dist(u, v)
//
// over tree nodes u, where pathlen(u) is the length of the tree path from
// the source to u. The implementation is the O(n^2) label-update form, which
// is appropriate for global nets (tens of pins).
func Tree(pts []geom.Pt, alpha float64) ([]int, error) {
	return new(Scratch).Tree(pts, alpha)
}

// Tree is the package-level Tree on sc's memory: the returned parent array
// aliases sc and is valid until sc's next use.
func (sc *Scratch) Tree(pts []geom.Pt, alpha float64) ([]int, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("spanning: no terminals")
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("spanning: alpha %v outside [0,1]", alpha)
	}
	return sc.grow(pts, alpha), nil
}

// grow is the greedy construction: a node v reached from tree node u at
// distance d costs a*pathlen(u) + d; the source's seeds take pathlen 0.
func (sc *Scratch) grow(pts []geom.Pt, a float64) []int {
	n := len(pts)
	sc.parent, sc.best = slices.Grow(sc.parent[:0], n)[:n], slices.Grow(sc.best[:0], n)[:n]
	sc.pathlen, sc.key = slices.Grow(sc.pathlen[:0], n)[:n], slices.Grow(sc.key[:0], n)[:n]
	sc.inTree = slices.Grow(sc.inTree[:0], n)[:n]
	parent, best, pathlen, key, inTree := sc.parent, sc.best, sc.pathlen, sc.key, sc.inTree
	for i := range key {
		key[i] = math.Inf(1)
		parent[i] = -1
		best[i] = -1
		pathlen[i] = 0
		inTree[i] = false
	}
	// Seed with the source.
	inTree[0] = true
	for v := 1; v < n; v++ {
		key[v] = float64(pts[0].Manhattan(pts[v]))
		best[v] = 0
	}
	for added := 1; added < n; added++ {
		// Pick the cheapest non-tree node.
		pick := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (pick == -1 || key[v] < key[pick]) {
				pick = v
			}
		}
		u := best[pick]
		parent[pick] = u
		pathlen[pick] = pathlen[u] + float64(pts[u].Manhattan(pts[pick]))
		inTree[pick] = true
		// Relax remaining nodes through the new tree node.
		for v := 0; v < n; v++ {
			if inTree[v] {
				continue
			}
			if c := a*pathlen[pick] + float64(pts[pick].Manhattan(pts[v])); c < key[v] {
				key[v] = c
				best[v] = pick
			}
		}
	}
	return parent
}

// Wirelength returns the total Manhattan length of the tree edges.
func Wirelength(pts []geom.Pt, parent []int) int {
	total := 0
	for v, p := range parent {
		if p >= 0 {
			total += pts[v].Manhattan(pts[p])
		}
	}
	return total
}

// Radius returns the maximum tree path length from the source (node 0) to
// any node, in Manhattan tile units.
func Radius(pts []geom.Pt, parent []int) int {
	depth := make([]int, len(parent))
	maxd := 0
	// Parents always precede children in insertion order, but parent itself
	// is arbitrary order; resolve iteratively.
	var walk func(v int) int
	walk = func(v int) int {
		if parent[v] < 0 {
			return 0
		}
		if depth[v] > 0 {
			return depth[v]
		}
		depth[v] = walk(parent[v]) + pts[v].Manhattan(pts[parent[v]])
		return depth[v]
	}
	for v := range parent {
		if d := walk(v); d > maxd {
			maxd = d
		}
	}
	return maxd
}
