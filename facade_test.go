package rabid

import "testing"

// TestFacadeSubsystems exercises every re-exported subsystem end to end on
// one small run, ensuring the public API is sufficient without touching
// internal packages.
func TestFacadeSubsystems(t *testing.T) {
	c, err := GenerateBenchmark("hp", GenOptions{GridW: 10, GridH: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, BenchmarkParams("hp"))
	if err != nil {
		t.Fatal(err)
	}

	// Layer promotion.
	asg, err := PromoteLayers(c, Default018(), DefaultStack018(), 0.2, 400e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg.LayerOf) != len(c.Nets) {
		t.Error("layer assignment incomplete")
	}

	// Site planning.
	plan, err := PlanSites(c, SitePlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalRecommended == 0 {
		t.Error("site plan empty")
	}

	// Report.
	rep, err := res.Report()
	if err != nil || len(rep.PerNet) != len(c.Nets) {
		t.Fatalf("report: %v", err)
	}

	// Timing-driven retime.
	reports, err := RetimeCriticalNets(res, 3, DefaultLibrary018())
	if err != nil || len(reports) != 3 {
		t.Fatalf("retime: %v %v", reports, err)
	}
}
