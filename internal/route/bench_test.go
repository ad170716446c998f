package route

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/tile"
)

// benchWorkload builds a deterministic congested routing instance shaped
// like a mid-size suite benchmark: a 32x32 grid, 120 nets of 1-3 sinks,
// capacity tight enough that rip-up has real work to do.
func benchWorkload(b testing.TB) (*tile.Graph, []*netlist.Net, []*rtree.Tree, []int) {
	b.Helper()
	const w, h, numNets = 32, 32, 120
	sites := make([]int, w*h)
	for i := range sites {
		sites[i] = 4
	}
	g, err := tile.New(w, h, sites, 3)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	nets := make([]*netlist.Net, numNets)
	for i := range nets {
		pin := func(p geom.Pt) netlist.Pin {
			return netlist.Pin{Tile: p, Pos: geom.FPt{X: float64(p.X) * 100, Y: float64(p.Y) * 100}}
		}
		n := &netlist.Net{ID: i, Name: "b", L: 6,
			Source: pin(geom.Pt{X: r.Intn(w), Y: r.Intn(h)})}
		for k := 0; k <= r.Intn(3); k++ {
			n.Sinks = append(n.Sinks, pin(geom.Pt{X: r.Intn(w), Y: r.Intn(h)}))
		}
		nets[i] = n
	}
	routes := make([]*rtree.Tree, numNets)
	order := make([]int, numNets)
	for i, n := range nets {
		rt, err := Reroute(g, n, DefaultOptions(), nil)
		if err != nil {
			b.Fatal(err)
		}
		routes[i] = rt
		AddUsage(g, rt)
		order[i] = i
	}
	return g, nets, routes, order
}

// BenchmarkReroute measures one wavefront reroute of a multi-sink net on a
// congested graph — the Stage-2 inner kernel. The returned tree is recycled
// each iteration, the steady state RipupPass runs in, so allocs/op should
// read 0 with a warmed workspace.
func BenchmarkReroute(b *testing.B) {
	g, nets, routes, _ := benchWorkload(b)
	n := nets[17]
	RemoveUsage(g, routes[17])
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := Reroute(g, n, DefaultOptions(), ws)
		if err != nil {
			b.Fatal(err)
		}
		ws.Recycle(rt)
	}
}

// BenchmarkRipupPass measures one full Nair pass over every net — the unit
// of Stage-2 work ReduceCongestionCtx repeats.
func BenchmarkRipupPass(b *testing.B) {
	g, nets, routes, order := benchWorkload(b)
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RipupPass(g, nets, routes, order, DefaultOptions(), ws); err != nil {
			b.Fatal(err)
		}
	}
}

// reportWavefront attaches deterministic pops/op and relaxations/op custom
// metrics to b. The instrumented probe call runs before the timer starts
// and the metrics are reported after the loop (ResetTimer clears custom
// metrics), so the timed loop stays observer-free; the counts are exact
// because the search is deterministic.
func reportWavefront(b *testing.B, m *obs.Metrics, popsKey, relaxKey string) {
	b.Helper()
	b.ReportMetric(m.Counter(popsKey), "pops/op")
	b.ReportMetric(m.Counter(relaxKey), "relaxations/op")
}

// benchPathInstance is the Stage-4 search instance of the path benchmarks
// and the allocation test: a long two-path across the congested bench
// workload, with one net's tree as the blocked mask.
func benchPathInstance(tb testing.TB) (g *tile.Graph, tail, head geom.Pt, blocked []bool) {
	tb.Helper()
	g, _, routes, _ := benchWorkload(tb)
	tail, head = geom.Pt{X: 29, Y: 29}, geom.Pt{X: 2, Y: 2}
	blocked = make([]bool, g.NumTiles())
	for _, t := range routes[3].Tile {
		blocked[g.TileIndex(t)] = true
	}
	blocked[g.TileIndex(tail)] = false
	blocked[g.TileIndex(head)] = false
	return g, tail, head, blocked
}

// benchIncumbent returns a good but not optimal tail-to-head reconnection
// for the L = 6 path benchmarks, standing in for the ripped two-path Stage
// 4 hands the search: the optimum of the same instance at L = 3.
func benchIncumbent(tb testing.TB, g *tile.Graph, tail, head geom.Pt, blocked []bool) []geom.Pt {
	tb.Helper()
	path, err := BufferAwarePath(g, tail, head, 3, blocked, nil, DefaultOptions(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	walk := make([]geom.Pt, len(path))
	for i, p := range path {
		walk[len(path)-1-i] = p
	}
	return walk
}

// BenchmarkBufferAwarePath measures the Stage-4 (tile, j) combined-cost maze
// — the pipeline's dominant pops source — on a long two-path with a blocked
// tree mask and no incumbent.
func BenchmarkBufferAwarePath(b *testing.B) {
	g, tail, head, blocked := benchPathInstance(b)
	probe := DefaultOptions()
	probe.Obs = obs.NewMetrics()
	ws := NewWorkspace()
	if _, err := BufferAwarePath(g, tail, head, 6, blocked, nil, probe, ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BufferAwarePath(g, tail, head, 6, blocked, nil, DefaultOptions(), ws); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWavefront(b, probe.Obs.(*obs.Metrics), "route.bap.pops", "route.bap.relaxations")
}

// BenchmarkBufferAwarePathIncumbent is BenchmarkBufferAwarePath with an
// incumbent reconnection, as Stage 4 calls it: the incumbent's cost bounds
// the search and the reverse-Dijkstra h (armed at L >= 3) prunes states
// that cannot beat it. pops/op and relaxations/op include the arming.
func BenchmarkBufferAwarePathIncumbent(b *testing.B) {
	g, tail, head, blocked := benchPathInstance(b)
	inc := benchIncumbent(b, g, tail, head, blocked)
	probe := DefaultOptions()
	probe.Obs = obs.NewMetrics()
	ws := NewWorkspace()
	if _, err := BufferAwarePath(g, tail, head, 6, blocked, inc, probe, ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BufferAwarePath(g, tail, head, 6, blocked, inc, DefaultOptions(), ws); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWavefront(b, probe.Obs.(*obs.Metrics), "route.bap.pops", "route.bap.relaxations")
}
