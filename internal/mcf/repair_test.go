package mcf

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/tile"
)

// repairOracle is the repair as it was before its congestion was kept
// incrementally: every candidate is added, scored by a scan of every edge,
// and removed again. TestRepairMatchesOracle holds repair to its picks and
// its result.
func repairOracle(g *tile.Graph, pools []pool, routes []*rtree.Tree, use []int) float64 {
	ne := g.NumEdges()
	addUse := func(rt *rtree.Tree, delta int) {
		for v := 1; v < rt.NumNodes(); v++ {
			e, _ := g.EdgeBetween(rt.Tile[rt.Parent[v]], rt.Tile[v])
			use[e] += delta
		}
	}
	score := func() (int, float64) {
		over := 0
		worst := 0.0
		for e := 0; e < ne; e++ {
			if d := use[e] - g.Capacity(e); d > 0 {
				over += d
			}
			if c := float64(use[e]) / float64(g.Capacity(e)); c > worst {
				worst = c
			}
		}
		return over, worst
	}
	for pass := 0; pass < 2; pass++ {
		for i := range routes {
			bestTree := routes[i]
			addUse(bestTree, -1)
			bestOver, bestCong := -1, 0.0
			for _, p := range pools[i] {
				addUse(p.tree, 1)
				over, cong := score()
				addUse(p.tree, -1)
				if bestOver < 0 || over < bestOver || (over == bestOver && cong < bestCong) {
					bestOver, bestCong, bestTree = over, cong, p.tree
				}
			}
			routes[i] = bestTree
			addUse(bestTree, 1)
		}
	}
	_, worst := score()
	return worst
}

// randomTree grows a tree of up to size distinct tiles from a random root:
// each new node steps from a random node of the tree to a random grid
// neighbor not yet in it.
func randomTree(rng *rand.Rand, g *tile.Graph, size int) *rtree.Tree {
	root := geom.Pt{X: rng.Intn(g.W), Y: rng.Intn(g.H)}
	rt := &rtree.Tree{Tile: []geom.Pt{root}, Parent: []int{-1}}
	in := map[geom.Pt]bool{root: true}
	var nbrs []geom.Pt
	for tries := 0; rt.NumNodes() < size && tries < 20*size; tries++ {
		v := rng.Intn(rt.NumNodes())
		nbrs = g.Neighbors(rt.Tile[v], nbrs[:0])
		if q := nbrs[rng.Intn(len(nbrs))]; !in[q] {
			in[q] = true
			rt.Tile = append(rt.Tile, q)
			rt.Parent = append(rt.Parent, v)
		}
	}
	return rt
}

// TestRepairMatchesOracle: on random grids, pools and usages, the
// incremental repair picks the same tree for every net as the scanning
// one, leaves the same usage, and returns a bit-identical worst
// congestion. A quarter of the edges get a capacity of 1 or 2, or in half
// the trials also 0 (blocked edges make +Inf and 0/0 quotients), and a
// third carry background usage, so overflow ties and congestion
// tie-breaks are common.
func TestRepairMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	changed, infinite := 0, 0
	for trial := 0; trial < 400; trial++ {
		g, err := tile.New(2+rng.Intn(7), 2+rng.Intn(7), nil, 1+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		blocked := trial%2 == 0 // only half the trials have blocked edges
		use := make([]int, g.NumEdges())
		for e := range use {
			if rng.Intn(4) == 0 {
				c := 1 + rng.Intn(2)
				if blocked && rng.Intn(2) == 0 {
					c = 0
				}
				g.SetCapacity(e, c)
			}
			if rng.Intn(3) == 0 {
				use[e] = rng.Intn(4)
			}
		}
		nets := 1 + rng.Intn(12)
		pools := make([]pool, nets)
		routes := make([]*rtree.Tree, nets)
		for i := range pools {
			k := 1 + rng.Intn(5)
			for j := 0; j < k; j++ {
				pools[i] = append(pools[i], pooled{tree: randomTree(rng, g, 1+rng.Intn(10)), count: 1})
			}
			routes[i] = pools[i][rng.Intn(k)].tree
			for v := 1; v < routes[i].NumNodes(); v++ {
				e, _ := g.EdgeBetween(routes[i].Tile[routes[i].Parent[v]], routes[i].Tile[v])
				use[e]++
			}
		}
		gotRoutes, wantRoutes := slices.Clone(routes), slices.Clone(routes)
		gotUse, wantUse := slices.Clone(use), slices.Clone(use)
		got := repair(g, pools, gotRoutes, gotUse)
		want := repairOracle(g, pools, wantRoutes, wantUse)
		for i := range routes {
			if gotRoutes[i] != wantRoutes[i] {
				t.Fatalf("trial %d: net %d picks pool tree %d, the oracle %d",
					trial, i, slices.IndexFunc(pools[i], func(p pooled) bool { return p.tree == gotRoutes[i] }),
					slices.IndexFunc(pools[i], func(p pooled) bool { return p.tree == wantRoutes[i] }))
			}
			if wantRoutes[i] != routes[i] {
				changed++
			}
		}
		if !slices.Equal(gotUse, wantUse) {
			t.Fatalf("trial %d: usage after repair differs from the oracle's", trial)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: worst congestion %v (%#x), the oracle %v (%#x)",
				trial, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if math.IsInf(want, 1) {
			infinite++
		}
	}
	t.Logf("the repair changed %d picks; %d of 400 results were +Inf", changed, infinite)
	if changed == 0 || infinite == 0 {
		t.Error("the random cases never changed a pick or never reached a blocked edge")
	}
}
