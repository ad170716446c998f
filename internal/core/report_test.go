package core

import (
	"bytes"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/tech"
)

func TestReportRoundTrip(t *testing.T) {
	c := smallCircuit(t, 21, 15, 10, 10, 2, 3)
	res, err := Run(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Circuit != c.Name || rep.Nets != len(c.Nets) {
		t.Error("header wrong")
	}
	if len(rep.Stages) != len(res.Stages) {
		t.Fatalf("stage count %d", len(rep.Stages))
	}
	if len(rep.PerNet) != len(c.Nets) {
		t.Fatalf("per-net count %d", len(rep.PerNet))
	}
	// Per-net buffers sum to the final stage count.
	sum := 0
	feasibleFails := 0
	for _, nr := range rep.PerNet {
		sum += nr.Buffers
		if !nr.Feasible {
			feasibleFails++
		}
		if nr.Feasible != (nr.Violations == 0) {
			t.Error("feasibility and violations disagree")
		}
		if nr.RouteTiles < 1 {
			t.Error("route tiles missing")
		}
	}
	final := rep.Stages[len(rep.Stages)-1]
	if sum != final.Buffers {
		t.Errorf("per-net buffers %d != stage buffers %d", sum, final.Buffers)
	}
	if feasibleFails != final.Fails {
		t.Errorf("per-net fails %d != stage fails %d", feasibleFails, final.Fails)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Circuit != rep.Circuit || len(got.PerNet) != len(rep.PerNet) {
		t.Error("round trip lost data")
	}
	if got.Stages[0].CPUSeconds < 0 {
		t.Error("negative CPU")
	}
}

func TestReadReportRejectsGarbage(t *testing.T) {
	if _, err := ReadReport(bytes.NewBufferString("{nope")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestReportAllocBound: a report reuses one delay scratch across nets and
// sizes its lists once, so it allocates a fixed count — the report, its two
// lists, the scratch's growth to the largest net — at any net count. With a
// fresh scratch per net it allocated about 12 objects per net. Each
// circuit is reported for the single-type engine and for the library DP,
// whose gates it expands per net.
func TestReportAllocBound(t *testing.T) {
	const bound = 100 // allocations per report, at any net count
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
		for _, lib := range [][]tech.LibGate{nil, tech.DefaultPlanningLibrary018()} {
			p := DefaultParams()
			p.Library = lib
			res, err := Run(c, p)
			if err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := res.Report(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s (%d nets), library %v: %v allocs per report", tc.name, len(c.Nets), lib != nil, avg)
			if avg > bound {
				t.Errorf("%s (%d nets), library %v: %v allocs per report, want <= %d",
					tc.name, len(c.Nets), lib != nil, avg, bound)
			}
		}
	}
}
