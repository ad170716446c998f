package bbp

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// generateTwoPin builds apte from its spec seed and decomposes it for BBP.
func generateTwoPin(t *testing.T) *netlist.Circuit {
	t.Helper()
	spec, err := floorplan.BySuiteName("apte")
	if err != nil {
		t.Fatal(err)
	}
	c, err := floorplan.Generate(spec, floorplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c.DecomposeTwoPin()
}

// TestSeededDeterminism locks the globalrand invariant end to end: all
// randomness flows from the spec/option seed through explicit *rand.Rand
// values (no math/rand package-level state anywhere, enforced by
// rabidlint), so generating and BBP-planning the same circuit twice must
// agree buffer for buffer and stat for stat.
func TestSeededDeterminism(t *testing.T) {
	run := func() (*netlist.Circuit, *Result) {
		c := generateTwoPin(t)
		res, err := Run(c, 8, tech.Default018(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return c, res
	}
	ca, a := run()
	cb, b := run()
	if len(ca.Nets) != len(cb.Nets) {
		t.Fatalf("net counts differ: %d vs %d", len(ca.Nets), len(cb.Nets))
	}
	if a.Buffers != b.Buffers || a.Overflows != b.Overflows ||
		a.MTAP != b.MTAP || a.WirelenMm != b.WirelenMm ||
		a.WireMax != b.WireMax || a.WireAvg != b.WireAvg ||
		a.MaxDelayPs != b.MaxDelayPs || a.AvgDelayPs != b.AvgDelayPs {
		t.Fatalf("results differ:\n%+v\n%+v", a, b)
	}
	for i := range a.Routes {
		pa, pb := a.Routes[i].EdgePairs(), b.Routes[i].EdgePairs()
		if len(pa) != len(pb) {
			t.Fatalf("net %d route size differs", i)
		}
		for k := range pa {
			if pa[k] != pb[k] {
				t.Fatalf("net %d edge %d differs: %v vs %v", i, k, pa[k], pb[k])
			}
		}
	}
}

// TestUntappedRunReportsCPU asserts the reporting contract at the API
// boundary: Table V's cpu column prints from the default, untapped path,
// so Run must report real wall time even with a nil observer. (The
// per-net/per-pass telemetry spans stay clock-free when untapped; only
// this one coarse, annotated timer always runs.)
func TestUntappedRunReportsCPU(t *testing.T) {
	c := generateTwoPin(t)
	res, err := Run(c, 8, tech.Default018(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU <= 0 {
		t.Errorf("untapped Run reported CPU = %v, want > 0 (Table V's cpu column prints untapped)", res.CPU)
	}
}
