package mcf

import (
	"math/bits"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tile"
)

// TestRouteAllocBound: a Route allocates a fixed set of per-run tables,
// at most one fresh tree (the struct and its three arrays) per distinct
// pooled tree, and the growth of each net's pool slice. Duplicate reroutes
// are donated back to the workspace and allocate nothing, and pool
// identity allocates nothing, so the count does not grow with phases ×
// nets. Before duplicates were recycled and identities computed once, this
// workload allocated over 4,000 times per Route.
func TestRouteAllocBound(t *testing.T) {
	// Straight two-pin nets on a capacity-4 grid: the exponential lengths
	// move some nets off their row now and then, so about a quarter of the
	// reroutes are new trees and the rest repeat a pooled one.
	g, err := tile.New(12, 12, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	var nets []*netlist.Net
	for i := 0; i < 16; i++ {
		nets = append(nets, mkNet(i, geom.Pt{X: 0, Y: i % 12}, geom.Pt{X: 11, Y: i % 12}))
	}
	opt := Options{Seed: 5, Phases: 12}
	res, err := Route(g, nets, opt)
	if err != nil {
		t.Fatal(err)
	}
	reroutes := opt.Phases * len(nets)
	if res.pooledTrees >= reroutes/2 {
		t.Fatalf("workload keeps %d distinct trees of %d reroutes; it needs duplicates to exercise recycling", res.pooledTrees, reroutes)
	}
	// perRun covers the run's tables, the workspace's growth and recycled
	// carcasses growing to a larger tree; perTree is TakeTree's struct and
	// Reroute's three sized arrays.
	const perRun, perTree = 64, 4
	growth := len(nets) * (1 + bits.Len(uint(opt.Phases)))
	bound := perRun + perTree*res.pooledTrees + growth
	avg := testing.AllocsPerRun(3, func() {
		if _, err := Route(g, nets, opt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > float64(bound) {
		t.Fatalf("Route: %v allocs/run, want <= %d (%d per run + %d per each of %d pooled trees + %d pool growth; %d reroutes)",
			avg, bound, perRun, perTree, res.pooledTrees, growth, reroutes)
	}
	t.Logf("Route: %v allocs/run for %d pooled trees of %d reroutes (bound %d)", avg, res.pooledTrees, reroutes, bound)
}
