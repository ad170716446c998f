package rabid

import (
	"context"
	"testing"
)

// TestPipelineDeterminism locks the property that the whole pipeline —
// generation, routing, buffering, post-processing — is a pure function of
// (benchmark, options): two runs must agree exactly, stat for stat and
// buffer for buffer. This is what makes the experiment tables and the
// EXPERIMENTS.md numbers reproducible.
func TestPipelineDeterminism(t *testing.T) {
	run := func() *Result {
		c, err := GenerateBenchmark("apte", GenOptions{GridW: 10, GridH: 11})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, BenchmarkParams("apte"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Capacity != b.Capacity {
		t.Fatalf("capacity %d vs %d", a.Capacity, b.Capacity)
	}
	for i := range a.Stages {
		sa, sb := a.Stages[i], b.Stages[i]
		if sa.Buffers != sb.Buffers || sa.Fails != sb.Fails ||
			sa.Overflows != sb.Overflows || sa.WirelenMm != sb.WirelenMm ||
			sa.MaxDelayPs != sb.MaxDelayPs {
			t.Fatalf("stage %d differs: %+v vs %+v", i+1, sa, sb)
		}
	}
	for i := range a.Routes {
		if a.Routes[i].NumNodes() != b.Routes[i].NumNodes() {
			t.Fatalf("net %d route differs", i)
		}
		ab, bb := a.Assignments[i].Buffers, b.Assignments[i].Buffers
		if len(ab) != len(bb) {
			t.Fatalf("net %d buffer count differs", i)
		}
		for k := range ab {
			if ab[k] != bb[k] {
				t.Fatalf("net %d buffer %d differs: %+v vs %+v", i, k, ab[k], bb[k])
			}
		}
	}
}

// TestRouteMCFFacade drives the multicommodity-flow router through the
// public API: Plan with the "mcf" engine and its phase knob routes every
// net and reports the three stages of that engine.
func TestRouteMCFFacade(t *testing.T) {
	c, err := GenerateBenchmark("apte", GenOptions{GridW: 10, GridH: 11})
	if err != nil {
		t.Fatal(err)
	}
	p := BenchmarkParams("apte")
	p.Backend = "mcf"
	p.MCFPhases = 4
	res, err := Plan(context.Background(), c, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != len(c.Nets) {
		t.Fatalf("routed %d of %d nets", len(res.Routes), len(c.Nets))
	}
	if len(res.Stages) != 3 || res.Stages[1].WireMax <= 0 {
		t.Errorf("stages %+v: want three, with Stage-2 congestion", res.Stages)
	}
}

// TestMCFPipelineParity plans with both Stage-2 routers, the rabid
// pipeline's rip-up and the mcf engine's multicommodity flow; both must
// satisfy the problem formulation's constraints.
func TestMCFPipelineParity(t *testing.T) {
	c, err := GenerateBenchmark("hp", GenOptions{GridW: 10, GridH: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"rabid", "mcf"} {
		p := BenchmarkParams("hp")
		p.Backend = engine
		res, err := Plan(context.Background(), c, p)
		if err != nil {
			t.Fatal(err)
		}
		final := res.Stages[len(res.Stages)-1]
		if final.Overflows != 0 {
			t.Errorf("%s: %d overflows", engine, final.Overflows)
		}
		if final.BufMax > 1 {
			t.Errorf("%s: buffer constraint violated", engine)
		}
	}
}
