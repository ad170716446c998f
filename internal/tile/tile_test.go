package tile

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func mustNew(t *testing.T, w, h int, sites []int, cap int) *Graph {
	t.Helper()
	g, err := New(w, h, sites, cap)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3, nil, 1); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(3, 3, nil, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(3, 3, make([]int, 5), 1); err == nil {
		t.Error("wrong site slice accepted")
	}
	if _, err := New(3, 3, nil, 1); err != nil {
		t.Errorf("nil sites rejected: %v", err)
	}
}

func TestEdgeCountFormula(t *testing.T) {
	cases := []struct{ w, h, want int }{
		{1, 1, 0},
		{2, 1, 1},
		{1, 2, 1},
		{2, 2, 4},
		{3, 2, 7},
		{30, 33, 29*33 + 30*32},
	}
	for _, c := range cases {
		g := mustNew(t, c.w, c.h, nil, 1)
		if g.NumEdges() != c.want {
			t.Errorf("%dx%d: NumEdges = %d, want %d", c.w, c.h, g.NumEdges(), c.want)
		}
	}
}

func TestTileIndexRoundTrip(t *testing.T) {
	g := mustNew(t, 7, 5, nil, 1)
	for i := 0; i < g.NumTiles(); i++ {
		if got := g.TileIndex(g.TileAt(i)); got != i {
			t.Fatalf("round trip %d -> %v -> %d", i, g.TileAt(i), got)
		}
	}
}

func TestEdgeBetweenUniqueAndSymmetric(t *testing.T) {
	g := mustNew(t, 4, 3, nil, 1)
	seen := map[int]bool{}
	var nbuf []geom.Pt
	for i := 0; i < g.NumTiles(); i++ {
		p := g.TileAt(i)
		nbuf = g.Neighbors(p, nbuf[:0])
		for _, q := range nbuf {
			e, ok := g.EdgeBetween(p, q)
			if !ok {
				t.Fatalf("neighbor %v-%v has no edge", p, q)
			}
			e2, ok := g.EdgeBetween(q, p)
			if !ok || e2 != e {
				t.Fatalf("edge %v-%v not symmetric (%d vs %d)", p, q, e, e2)
			}
			if e < 0 || e >= g.NumEdges() {
				t.Fatalf("edge index %d out of range", e)
			}
			seen[e] = true
		}
	}
	if len(seen) != g.NumEdges() {
		t.Errorf("visited %d distinct edges, want %d", len(seen), g.NumEdges())
	}
}

func TestEdgeBetweenRejectsNonNeighbors(t *testing.T) {
	g := mustNew(t, 4, 3, nil, 1)
	bad := [][2]geom.Pt{
		{{X: 0, Y: 0}, {X: 2, Y: 0}},
		{{X: 0, Y: 0}, {X: 1, Y: 1}},
		{{X: 0, Y: 0}, {X: 0, Y: 0}},
		{{X: 0, Y: 0}, {X: -1, Y: 0}},
		{{X: 3, Y: 2}, {X: 4, Y: 2}},
	}
	for _, pq := range bad {
		if _, ok := g.EdgeBetween(pq[0], pq[1]); ok {
			t.Errorf("EdgeBetween(%v,%v) accepted", pq[0], pq[1])
		}
	}
}

func TestNeighborsCorners(t *testing.T) {
	g := mustNew(t, 4, 3, nil, 1)
	if n := g.Neighbors(geom.Pt{X: 0, Y: 0}, nil); len(n) != 2 {
		t.Errorf("corner has %d neighbors", len(n))
	}
	if n := g.Neighbors(geom.Pt{X: 1, Y: 0}, nil); len(n) != 3 {
		t.Errorf("edge tile has %d neighbors", len(n))
	}
	if n := g.Neighbors(geom.Pt{X: 1, Y: 1}, nil); len(n) != 4 {
		t.Errorf("interior tile has %d neighbors", len(n))
	}
}

func TestWireCostEq1(t *testing.T) {
	g := mustNew(t, 2, 1, nil, 4)
	e, _ := g.EdgeBetween(geom.Pt{X: 0, Y: 0}, geom.Pt{X: 1, Y: 0})
	// w=0: (0+1)/(4-0) = 0.25
	if got := g.WireCost(e); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("cost at w=0: %v", got)
	}
	g.AddWire(e)
	g.AddWire(e)
	g.AddWire(e)
	// w=3: (3+1)/(4-3) = 4
	if got := g.WireCost(e); math.Abs(got-4) > 1e-12 {
		t.Errorf("cost at w=3: %v", got)
	}
	g.AddWire(e)
	if !math.IsInf(g.WireCost(e), 1) {
		t.Error("cost at capacity must be +Inf")
	}
}

func TestWireCostMonotone(t *testing.T) {
	g := mustNew(t, 2, 1, nil, 10)
	e := 0
	prev := g.WireCost(e)
	for i := 0; i < 9; i++ {
		g.AddWire(e)
		cur := g.WireCost(e)
		if cur <= prev {
			t.Fatalf("WireCost not strictly increasing at w=%d", i+1)
		}
		prev = cur
	}
}

func TestSiteCostEq2(t *testing.T) {
	g := mustNew(t, 1, 1, []int{12}, 1)
	g.AddBuffer(0)
	g.AddBuffer(0)
	g.AddDemand(0, 2.0)
	// Fig. 5 third tile: B=12, b=2, p=2 -> (2+2+1)/(12-2) = 0.5
	if got := g.SiteCost(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("SiteCost = %v, want 0.5", got)
	}
}

func TestSiteCostFig5Row(t *testing.T) {
	// The full Fig. 5 row: B, b, p -> q.
	B := []int{8, 5, 12, 3, 5, 0}
	b := []int{3, 4, 2, 3, 0, 0}
	p := []float64{2.5, 3.6, 2, 0.8, 4, 5}
	want := []float64{1.3, 8.6, 0.5, math.Inf(1), 1.0, math.Inf(1)}
	g := mustNew(t, 6, 1, B, 1)
	for v := range B {
		for i := 0; i < b[v]; i++ {
			g.AddBuffer(v)
		}
		g.AddDemand(v, p[v])
	}
	for v := range want {
		got := g.SiteCost(v)
		if math.IsInf(want[v], 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("tile %d: q = %v, want +Inf", v, got)
			}
			continue
		}
		if math.Abs(got-want[v]) > 1e-9 {
			t.Errorf("tile %d: q = %v, want %v", v, got, want[v])
		}
	}
}

func TestSiteCostFullTileInfinite(t *testing.T) {
	g := mustNew(t, 1, 1, []int{1}, 1)
	g.AddBuffer(0)
	if !math.IsInf(g.SiteCost(0), 1) {
		t.Error("full tile should cost +Inf")
	}
	if !math.IsInf(mustNew(t, 1, 1, []int{0}, 1).SiteCost(0), 1) {
		t.Error("zero-site tile should cost +Inf")
	}
}

func TestAddRemovePanics(t *testing.T) {
	g := mustNew(t, 2, 1, []int{1, 0}, 1)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	expectPanic("RemoveWire empty", func() { g.RemoveWire(0) })
	expectPanic("RemoveBuffer empty", func() { g.RemoveBuffer(0) })
	g.AddBuffer(0)
	expectPanic("AddBuffer full", func() { g.AddBuffer(0) })
	expectPanic("AddBuffer zero-site", func() { g.AddBuffer(1) })
	expectPanic("SetCapacity negative", func() { g.SetCapacity(0, -1) })
	g.SetCapacity(0, 0) // zero is legal: a blocked edge
}

func TestWireUsageConservation(t *testing.T) {
	// Adding then removing arbitrary sequences of wires returns to zero.
	f := func(ops []uint8) bool {
		g, _ := New(3, 3, nil, 100)
		var stack []int
		for _, op := range ops {
			e := int(op) % g.NumEdges()
			g.AddWire(e)
			stack = append(stack, e)
		}
		for _, e := range stack {
			g.RemoveWire(e)
		}
		st := g.WireCongestion()
		return st.Max == 0 && st.Avg == 0 && st.Overflow == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireCongestionStats(t *testing.T) {
	g := mustNew(t, 2, 2, nil, 2)
	// 4 edges, capacity 2 each. Load one edge with 5, another with 1.
	for i := 0; i < 5; i++ {
		g.AddWire(0)
	}
	g.AddWire(1)
	st := g.WireCongestion()
	if math.Abs(st.Max-2.5) > 1e-12 {
		t.Errorf("Max = %v, want 2.5", st.Max)
	}
	if st.Overflow != 3 {
		t.Errorf("Overflow = %d, want 3", st.Overflow)
	}
	wantAvg := (2.5 + 0.5 + 0 + 0) / 4
	if math.Abs(st.Avg-wantAvg) > 1e-12 {
		t.Errorf("Avg = %v, want %v", st.Avg, wantAvg)
	}
}

func TestBufferDensityStats(t *testing.T) {
	g := mustNew(t, 2, 2, []int{4, 2, 0, 0}, 1)
	g.AddBuffer(0)
	g.AddBuffer(0)
	g.AddBuffer(1)
	st := g.BufferDensity()
	if st.Buffers != 3 {
		t.Errorf("Buffers = %d", st.Buffers)
	}
	if math.Abs(st.Max-0.5) > 1e-12 {
		t.Errorf("Max = %v, want 0.5", st.Max)
	}
	// Average over tiles with sites only: (0.5 + 0.5)/2.
	if math.Abs(st.Avg-0.5) > 1e-12 {
		t.Errorf("Avg = %v, want 0.5", st.Avg)
	}
}

func TestDemandClampsAtZero(t *testing.T) {
	g := mustNew(t, 1, 1, []int{1}, 1)
	g.AddDemand(0, 0.5)
	g.AddDemand(0, -0.5000001)
	if g.Demand(0) != 0 {
		t.Errorf("Demand = %v, want clamp to 0", g.Demand(0))
	}
}

func TestResetAndClone(t *testing.T) {
	g := mustNew(t, 2, 2, []int{1, 1, 1, 1}, 3)
	g.AddWire(0)
	g.AddBuffer(0)
	g.AddDemand(1, 2)
	c := g.Clone()
	g.ResetWires()
	g.ResetBuffers()
	if g.Usage(0) != 0 || g.UsedSites(0) != 0 {
		t.Error("reset failed")
	}
	if c.Usage(0) != 1 || c.UsedSites(0) != 1 || c.Demand(1) != 2 {
		t.Error("clone does not preserve state")
	}
	c.AddWire(0)
	if g.Usage(0) != 0 {
		t.Error("clone shares storage with original")
	}
}

func TestCalibrateCapacity(t *testing.T) {
	// 10 edges, total usage 30, target avg 0.3 -> capacity 10.
	use := make([]int, 10)
	for i := range use {
		use[i] = 3
	}
	if got := CalibrateCapacity(use, 10, 0.3); got != 10 {
		t.Errorf("CalibrateCapacity = %d, want 10", got)
	}
	if got := CalibrateCapacity(nil, 10, 0.3); got != 1 {
		t.Errorf("empty usage should give 1, got %d", got)
	}
	if got := CalibrateCapacity(use, 0, 0.3); got != 1 {
		t.Errorf("degenerate edges should give 1, got %d", got)
	}
}

func TestUsageSnapshotIndependent(t *testing.T) {
	g := mustNew(t, 2, 1, nil, 1)
	g.AddWire(0)
	s := g.UsageSnapshot()
	g.AddWire(0)
	if s[0] != 1 {
		t.Error("snapshot not a copy")
	}
}

func TestEdgeUtilBlockedEdge(t *testing.T) {
	g := mustNew(t, 2, 2, nil, 2)
	g.AddWire(0)
	if got := g.EdgeUtil(0); got != 0.5 {
		t.Errorf("EdgeUtil = %v, want 0.5", got)
	}
	g.SetCapacity(0, 0) // blocked edge
	// Utilization degrades to the raw wire count — finite, never Inf/NaN.
	if got := g.EdgeUtil(0); got != 1 {
		t.Errorf("EdgeUtil on blocked edge = %v, want 1", got)
	}
	st := g.WireCongestion()
	if st.Max != st.Max || math.IsInf(st.Max, 0) {
		t.Errorf("WireCongestion.Max = %v with a blocked edge, want finite", st.Max)
	}
}
