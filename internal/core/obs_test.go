package core

import (
	"bytes"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/route"
)

// TestObserverEventDeterminism proves the tentpole guarantee at the event
// level: with an observer attached, the exported JSON-lines stream (which
// omits wall-clock durations by default) is byte-identical for every
// Workers value — the parallel per-net sections buffer their events per
// index and flush in order.
func TestObserverEventDeterminism(t *testing.T) {
	c := smallCircuit(t, 31, 20, 10, 10, 2, 3)
	stream := func(workers int) []byte {
		var buf bytes.Buffer
		sink := obs.NewJSONLines(&buf)
		p := DefaultParams()
		p.Workers = workers
		p.Observer = sink
		if _, err := Run(c, p); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := sink.Err(); err != nil {
			t.Fatalf("workers=%d: sink: %v", workers, err)
		}
		return buf.Bytes()
	}
	ref := stream(1)
	if len(ref) == 0 {
		t.Fatal("no events emitted")
	}
	for _, w := range []int{4, 0} {
		if got := stream(w); !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: event stream differs from workers=1\n(first 400 bytes)\nref: %.400s\ngot: %.400s", w, ref, got)
		}
	}
}

// TestObserverDoesNotChangeResults: attaching an observer must be a pure
// tap — stage statistics, routes, and buffer assignments are identical to
// an unobserved run.
func TestObserverDoesNotChangeResults(t *testing.T) {
	c := smallCircuit(t, 32, 15, 10, 10, 2, 3)
	bare, err := Run(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Observer = obs.NewMetrics()
	tapped, err := Run(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Stages) != len(tapped.Stages) {
		t.Fatalf("stage count %d vs %d", len(bare.Stages), len(tapped.Stages))
	}
	for i := range bare.Stages {
		a, b := bare.Stages[i], tapped.Stages[i]
		a.CPU, b.CPU = 0, 0
		if a != b {
			t.Errorf("stage %d stats differ:\n  bare:   %+v\n  tapped: %+v", i+1, a, b)
		}
	}
	for i := range bare.Assignments {
		ab, bb := bare.Assignments[i].Buffers, tapped.Assignments[i].Buffers
		if len(ab) != len(bb) {
			t.Fatalf("net %d buffer count %d vs %d", i, len(ab), len(bb))
		}
		for k := range ab {
			if ab[k] != bb[k] {
				t.Fatalf("net %d buffer %d differs", i, k)
			}
		}
	}
}

// TestObserverMetricsCoverage checks the metrics registry sees the whole
// pipeline: one span per stage with a positive duration, the run span,
// per-net Steiner spans, and the Stage-2/3 work counters.
func TestObserverMetricsCoverage(t *testing.T) {
	c := smallCircuit(t, 33, 12, 10, 10, 2, 3)
	m := obs.NewMetrics()
	p := DefaultParams()
	// Pin the edge capacity low enough to overflow: Stage 2 now skips the
	// rip-up loop entirely on an overflow-free circuit (0 passes), and a
	// calibrated capacity leaves this small instance uncongested — with no
	// pass there are no route.pops.2 events to cover.
	p.Capacity = 1
	p.Observer = m
	if _, err := Run(c, p); err != nil {
		t.Fatal(err)
	}
	if s := m.Span("run"); s.Count != 1 || s.Total <= 0 {
		t.Errorf("run span = %+v, want count 1 with positive total", s)
	}
	for stage := 1; stage <= 4; stage++ {
		k := "stage." + string(rune('0'+stage))
		if s := m.Span(k); s.Count != 1 || s.Total <= 0 {
			t.Errorf("span %s = %+v, want count 1 with positive total", k, s)
		}
	}
	if s := m.Span("net.steiner.1"); s.Count != len(c.Nets) {
		t.Errorf("net.steiner.1 span count = %d, want %d (one per net)", s.Count, len(c.Nets))
	}
	if v := m.Counter("route.pops.2"); v <= 0 {
		t.Errorf("route.pops.2 = %g, want > 0 (Stage-2 Dijkstra expansions)", v)
	}
	if v := m.Counter("dp.candidates.3"); v <= 0 {
		t.Errorf("dp.candidates.3 = %g, want > 0 (Stage-3 DP work)", v)
	}
	if g, ok := m.Gauge("stage.wire_avg.1"); !ok || g <= 0 {
		t.Errorf("stage.wire_avg.1 = %g,%v, want a positive reading", g, ok)
	}
	if v := m.Counter("delay.nonfinite"); v != 0 {
		t.Errorf("delay.nonfinite = %g on a healthy run, want 0", v)
	}
}

// The observer-overhead benchmarks back DESIGN.md's numbers: compare
// BenchmarkRunNilObserver (the zero-cost fast path) against
// BenchmarkRunMetricsObserver (aggregating tap attached).
func benchmarkRun(b *testing.B, o obs.Observer) {
	c := smallCircuit(b, 41, 30, 12, 12, 3, 4)
	p := DefaultParams()
	p.Observer = o
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunNilObserver(b *testing.B)     { benchmarkRun(b, nil) }
func BenchmarkRunMetricsObserver(b *testing.B) { benchmarkRun(b, obs.NewMetrics()) }

// TestObservedPlanAllocBound: attaching the metrics registry costs a plan
// a constant number of allocations, not a number that grows with its
// nets. Once the registry has seen every series, an event is one map
// lookup that allocates nothing; the parallel sections' event buffers and
// the stage heat fields are made once per run. hp has 68 nets and playout
// 1,294; with a string built per event and a slice per net and section,
// observing cost 2,080 and 31,241 allocations more than not.
func TestObservedPlanAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime changes allocation counts")
	}
	const bound = 64 // extra allocations per observed plan, at any net count
	for _, tc := range []struct {
		name string
		w, h int
	}{{"hp", 10, 10}, {"playout", 11, 10}} {
		spec, err := floorplan.BySuiteName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := floorplan.Generate(spec, floorplan.Options{GridW: tc.w, GridH: tc.h})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			plan := func(o obs.Observer) float64 {
				p := DefaultParams()
				p.Workers = workers
				p.Observer = o
				p.WorkspacePool = route.NewPool()
				run := func() {
					if _, err := Run(c, p); err != nil {
						t.Fatal(err)
					}
				}
				run() // warm the pooled workspace and the registry's series
				return testing.AllocsPerRun(2, run)
			}
			bare, observed := plan(nil), plan(obs.NewMetrics())
			t.Logf("%s (%d nets), workers=%d: %v allocs unobserved, %v observed (+%v)",
				tc.name, len(c.Nets), workers, bare, observed, observed-bare)
			if observed-bare > bound {
				t.Errorf("%s (%d nets), workers=%d: an observed plan allocates %v, %v more than unobserved (%v); want at most %d more",
					tc.name, len(c.Nets), workers, observed, observed-bare, bare, bound)
			}
		}
	}
}
