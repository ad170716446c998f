package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/bufferdp"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/rtree"
)

// newTestState builds a pipeline state directly (as Run does) and executes
// Stage 1 with the delay evaluation that ends it, so tests can drive
// individual stages and error paths.
func newTestState(t *testing.T, c *netlist.Circuit, p Params) *state {
	t.Helper()
	eval, err := delay.NewEvaluator(p.Tech, c.TileUm)
	if err != nil {
		t.Fatal(err)
	}
	s := &state{
		ctx:    context.Background(),
		c:      c,
		p:      p,
		eval:   eval,
		routes: make([]*rtree.Tree, len(c.Nets)),
		asg:    make([]bufferdp.Assignment, len(c.Nets)),
		hasAsg: make([]bool, len(c.Nets)),
		delays: make([]float64, len(c.Nets)),
		ws:     route.NewWorkspace(),
	}
	if err := s.stage1(); err != nil {
		t.Fatal(err)
	}
	if err := s.refreshDelays(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRefreshDelaysPropagatesEvaluatorError is the regression test for the
// silent-failure bug: a net whose buffer assignment no longer matches its
// route used to be recorded with delay 0 (sorting as the *least* critical
// net); the evaluator error must now surface and the net must sort
// deterministically as the most critical (+Inf).
func TestRefreshDelaysPropagatesEvaluatorError(t *testing.T) {
	c := smallCircuit(t, 21, 6, 8, 8, 2, 3)
	s := newTestState(t, c, DefaultParams())
	// Corrupt net 0: a buffer on a node the route does not have.
	s.hasAsg[0] = true
	s.asg[0] = bufferdp.Assignment{Buffers: []bufferdp.Buffer{{Node: 1 << 20, Branch: -1}}}
	err := s.refreshDelays()
	if err == nil {
		t.Fatal("evaluator failure swallowed")
	}
	if !strings.Contains(err.Error(), "net 0") {
		t.Errorf("error does not name the broken net: %v", err)
	}
	if !math.IsInf(s.delays[0], 1) {
		t.Errorf("broken net delay = %v, want +Inf (most critical)", s.delays[0])
	}
	// The healthy nets must still have been refreshed despite the failure.
	for i := 1; i < len(s.delays); i++ {
		if s.delays[i] <= 0 || math.IsInf(s.delays[i], 0) {
			t.Errorf("healthy net %d delay %v not refreshed", i, s.delays[i])
		}
	}
	// And the broken net orders last in ascending (Stage-2/4) order, first
	// in descending (Stage-3) order — deterministically.
	asc := s.orderByDelay(false)
	if asc[len(asc)-1] != 0 {
		t.Errorf("broken net not last in ascending order: %v", asc)
	}
	desc := s.orderByDelay(true)
	if desc[0] != 0 {
		t.Errorf("broken net not first in descending order: %v", desc)
	}
}

// TestRefreshDelaysReportsAllBrokenNets: partial failures are collected,
// not cut short at the first broken net.
func TestRefreshDelaysReportsAllBrokenNets(t *testing.T) {
	c := smallCircuit(t, 22, 6, 8, 8, 2, 3)
	s := newTestState(t, c, DefaultParams())
	for _, i := range []int{1, 4} {
		s.hasAsg[i] = true
		s.asg[i] = bufferdp.Assignment{Buffers: []bufferdp.Buffer{{Node: 1 << 20, Branch: -1}}}
	}
	err := s.refreshDelays()
	if err == nil {
		t.Fatal("evaluator failures swallowed")
	}
	for _, want := range []string{"net 1", "net 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

// TestStage3RejectsNonPositiveL is the regression test for the demand-term
// poisoning bug: 1/float64(0) is +Inf, which would contaminate p(v) on
// every tile the net crosses. Circuit.Validate rejects such circuits at
// Run's entry; stage3 must also refuse if reached directly.
func TestStage3RejectsNonPositiveL(t *testing.T) {
	c := smallCircuit(t, 23, 4, 8, 8, 2, 3)
	s := newTestState(t, c, DefaultParams())
	s.c.Nets[2].L = 0
	if err := s.stage3(); err == nil {
		t.Fatal("stage 3 accepted a net with L=0")
	} else if !strings.Contains(err.Error(), "demand term") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestReworkNetRestoresOnFailedReconnection covers Stage 4's
// restore-on-failed-reconnection branch: when BufferAwarePath cannot
// produce a reconnection (here: the net's L makes the DP state space
// overflow its int32 labels, so every attempt errors), the old route and
// its registered wire usage must be restored untouched.
func TestReworkNetRestoresOnFailedReconnection(t *testing.T) {
	c := smallCircuit(t, 24, 4, 8, 8, 2, 3)
	s := newTestState(t, c, DefaultParams())
	s.c.Nets[0].L = math.MaxInt32 // 64 tiles * MaxInt32 >> int32 state labels
	before := make([]int, s.g.NumEdges())
	for e := range before {
		before[e] = s.g.Usage(e)
	}
	oldRoute := s.routes[0]
	m := obs.NewMetrics()
	s.obs, s.stage = m, 4
	if err := s.reworkNet(0); err != nil {
		t.Fatalf("failed reconnections must be skipped, not fatal: %v", err)
	}
	if s.routes[0] != oldRoute {
		t.Error("route replaced although every reconnection failed")
	}
	for e := range before {
		if got := s.g.Usage(e); got != before[e] {
			t.Fatalf("edge %d usage %d, want %d: wire accounting corrupted by failed rework", e, got, before[e])
		}
	}
	// The skipped reconnections are not silent: each one is counted.
	tried := m.Counter("rework.twopaths.4")
	if tried == 0 {
		t.Fatal("no two-path was attempted")
	}
	if got := m.Counter("rework.noreconnect.4"); got != tried {
		t.Errorf("rework.noreconnect = %v, want one per failed two-path (%v)", got, tried)
	}
}

// TestReworkNetAllocBound: once the workspace, the recycled-tree free list
// and the run's scratch are warm, reworking a net allocates O(1) — a
// bounded number independent of its two-paths and splices (the map-based
// rework allocated hundreds of times per net). Routes change from sweep
// to sweep, so the bound allows an occasional amortized regrowth.
func TestReworkNetAllocBound(t *testing.T) {
	c := smallCircuit(t, 26, 30, 16, 16, 2, 4)
	s := newTestState(t, c, DefaultParams())
	sweep := func() {
		for i := range s.routes {
			if err := s.reworkNet(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := 0; k < 4; k++ {
		sweep()
	}
	splices := 0
	for _, rt := range s.routes {
		rt.TwoPathsInto(&s.paths)
		splices += s.paths.Len()
	}
	avg := testing.AllocsPerRun(10, sweep)
	t.Logf("%v allocs per sweep of %d nets (%d two-paths)", avg, len(s.routes), splices)
	if perNet := avg / float64(len(s.routes)); perNet > 1 {
		t.Fatalf("reworkNet with warmed scratch: %v allocs per sweep of %d nets (%d two-paths), want <= 1 per net",
			avg, len(s.routes), splices)
	}
}

// TestStage2AllocBound: Stage 2 reroutes every net on the run's one
// workspace, so once that workspace and its recycled-tree free list are
// warm a Stage-2 call as execute runs it (stage2, then the stage's delay
// refresh) allocates a fixed count — the pass order and the delay
// refresh's fan-out — however many nets and rip-up passes it runs.
// The state holds no WorkspacePool, as in a Run with a nil pool, and
// capacity 1 keeps the circuit overflowing, so every call runs all
// MaxRipupPasses passes. Recycled trees take a few dozen calls to grow to
// the largest net they will carry, hence the long warm-up.
func TestStage2AllocBound(t *testing.T) {
	const bound = 16 // allocations per stage2 call, at any net or pass count
	for _, workers := range []int{1, 2} {
		p := DefaultParams()
		p.Workers = workers
		p.Capacity = 1
		p.MaxRipupPasses = 6
		s := newTestState(t, smallCircuit(t, 27, 60, 12, 12, 2, 4), p)
		stage2 := func() {
			if err := s.stage2(); err != nil {
				t.Fatal(err)
			}
			if err := s.refreshDelays(); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 60; k++ {
			stage2()
		}
		if s.g.WireCongestion().Overflow == 0 {
			t.Fatal("setup: the circuit must still overflow, or stage2 runs no pass")
		}
		avg := testing.AllocsPerRun(10, stage2)
		t.Logf("workers=%d: %v allocs per stage2 call (%d nets, %d passes)", workers, avg, len(s.routes), p.MaxRipupPasses)
		if avg > bound {
			t.Errorf("workers=%d: %v allocs per stage2 call with a warmed workspace, want <= %d", workers, avg, bound)
		}
	}
}

// TestStage1AllocBound: with each worker slot's steiner.Scratch warm, a
// Stage-1 call as execute runs it (stage1, then the stage's delay refresh)
// allocates a fixed count per net — the output tree (the Tree and its
// Tile, Parent and SinkNode arrays) and its child adjacency, which the
// delay refresh builds — plus a constant for the two tile graphs, the
// fan-outs and the calibration, at any net count. The map-based Stage 1
// made about 88 allocations per net. With two workers, which slot serves
// which net varies, so only the bound is held there.
func TestStage1AllocBound(t *testing.T) {
	const perNet, constant = 5, 64
	for _, workers := range []int{1, 2} {
		var counts [2]float64
		nets := [2]int{40, 120}
		for k, n := range nets {
			p := DefaultParams()
			p.Workers = workers
			s := newTestState(t, smallCircuit(t, 28, n, 16, 16, 2, 4), p)
			stage1 := func() {
				if err := s.stage1(); err != nil {
					t.Fatal(err)
				}
				if err := s.refreshDelays(); err != nil {
					t.Fatal(err)
				}
			}
			for w := 0; w < 20; w++ {
				stage1()
			}
			counts[k] = testing.AllocsPerRun(10, stage1)
			if bound := float64(perNet*n + constant); counts[k] > bound {
				t.Errorf("workers=%d: %v allocs per stage1 call at %d nets, want <= %v", workers, counts[k], n, bound)
			}
		}
		per := (counts[1] - counts[0]) / float64(nets[1]-nets[0])
		t.Logf("workers=%d: %v and %v allocs per stage1 call at %d and %d nets: %v per net, %v constant",
			workers, counts[0], counts[1], nets[0], nets[1], per, counts[0]-per*float64(nets[0]))
		if workers == 1 && per != perNet {
			t.Errorf("workers=1: %v allocs per net, want %d", per, perNet)
		}
	}
}

// TestWorkersDeterminismCore proves the tentpole guarantee at the core
// level: every Workers value yields bit-identical stage statistics, routes,
// and buffer assignments.
func TestWorkersDeterminismCore(t *testing.T) {
	c := smallCircuit(t, 25, 30, 12, 12, 3, 4)
	run := func(workers int) *Result {
		p := DefaultParams()
		p.Workers = workers
		res, err := Run(c, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{2, 4, 0} {
		got := run(w)
		if got.Capacity != ref.Capacity {
			t.Fatalf("workers=%d: capacity %d vs %d", w, got.Capacity, ref.Capacity)
		}
		for si := range ref.Stages {
			a, b := ref.Stages[si], got.Stages[si]
			a.CPU, b.CPU = 0, 0
			if a != b {
				t.Fatalf("workers=%d: stage %d stats differ:\n  seq: %+v\n  par: %+v", w, si+1, a, b)
			}
		}
		for i := range ref.Routes {
			if ra, rb := ref.Routes[i], got.Routes[i]; ra.NumNodes() != rb.NumNodes() {
				t.Fatalf("workers=%d: net %d route differs", w, i)
			}
			ab, bb := ref.Assignments[i].Buffers, got.Assignments[i].Buffers
			if len(ab) != len(bb) {
				t.Fatalf("workers=%d: net %d buffer count differs", w, i)
			}
			for k := range ab {
				if ab[k] != bb[k] {
					t.Fatalf("workers=%d: net %d buffer %d differs", w, i, k)
				}
			}
		}
	}
}
