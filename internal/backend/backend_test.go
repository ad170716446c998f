package backend

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/mcf"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// testCircuit builds a compact deterministic instance that runs fast
// (mirrors the core package's test helper, which is package-private).
func testCircuit(t testing.TB, seed int64, nets, gridW, gridH, sitesPerTile, L int) *netlist.Circuit {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tileUm := 600.0
	c := &netlist.Circuit{
		Name:        "unit",
		GridW:       gridW,
		GridH:       gridH,
		TileUm:      tileUm,
		BufferSites: make([]int, gridW*gridH),
	}
	for i := range c.BufferSites {
		c.BufferSites[i] = sitesPerTile
	}
	pin := func() netlist.Pin {
		p := geom.FPt{X: (r.Float64() * float64(gridW)) * tileUm, Y: (r.Float64() * float64(gridH)) * tileUm}
		if p.X >= c.ChipW() {
			p.X = c.ChipW() - 1
		}
		if p.Y >= c.ChipH() {
			p.Y = c.ChipH() - 1
		}
		return netlist.Pin{Tile: c.TileOf(p), Pos: p}
	}
	for i := 0; i < nets; i++ {
		n := &netlist.Net{ID: i, Name: "n", Source: pin(), L: L}
		for s := 0; s <= r.Intn(3); s++ {
			n.Sinks = append(n.Sinks, pin())
		}
		c.Nets = append(c.Nets, n)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNames(t *testing.T) {
	want := []string{NameMCF, NameRabid, NameRabidLib}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range Names() {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", name)
		}
		if e.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, e.Name())
		}
		if e.Describe() == "" {
			t.Errorf("engine %q has no description", name)
		}
	}
}

func TestLookupDefault(t *testing.T) {
	e, ok := Lookup("")
	if !ok || e.Name() != NameRabid {
		t.Fatalf(`Lookup("") = %v, %v; want rabid engine`, e, ok)
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown engine succeeded")
	}
}

func TestNormalize(t *testing.T) {
	lib := tech.DefaultPlanningLibrary018()

	p, err := Normalize(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend != NameRabid || len(p.Library) != 0 {
		t.Fatalf("empty backend normalized to %q with %d gates", p.Backend, len(p.Library))
	}

	q := core.DefaultParams()
	q.Backend = NameRabidLib
	q, err = Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Library, lib) {
		t.Fatalf("rabid+lib with empty library did not default to DefaultPlanningLibrary018")
	}

	// An explicit library passes through untouched.
	custom := []tech.LibGate{lib[0]}
	q = core.DefaultParams()
	q.Backend = NameRabidLib
	q.Library = custom
	q, err = Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Library, custom) {
		t.Fatal("explicit library was replaced")
	}

	bad := core.DefaultParams()
	bad.Backend = "fastest"
	if _, err := Normalize(bad); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("unknown engine error = %v", err)
	}

	for _, name := range []string{NameRabid, NameMCF} {
		p := core.DefaultParams()
		p.Backend = name
		p.Library = custom
		if _, err := Normalize(p); err == nil {
			t.Errorf("engine %q accepted a buffer library", name)
		}
	}

	// The mcf knobs reach only the mcf engine: any other engine refuses
	// them rather than key a byte-identical result twice.
	for _, name := range []string{NameRabid, NameRabidLib, ""} {
		for knob, mutate := range map[string]func(*core.Params){
			"phases":  func(p *core.Params) { p.MCFPhases = 5 },
			"epsilon": func(p *core.Params) { p.MCFEpsilon = 0.2 },
		} {
			p := core.DefaultParams()
			p.Backend = name
			mutate(&p)
			if _, err := Normalize(p); err == nil || !strings.Contains(err.Error(), "does not take mcf") {
				t.Errorf("engine %q with mcf %s: error = %v", name, knob, err)
			}
		}
	}
	m := core.DefaultParams()
	m.Backend, m.MCFPhases, m.MCFEpsilon = NameMCF, 5, 0.2
	if _, err := Normalize(m); err != nil {
		t.Errorf("mcf engine refused its own knobs: %v", err)
	}

	// A default spelled out folds to the default request's spelling.
	def := core.DefaultParams()
	def.Backend = NameMCF
	want, err := Normalize(def)
	if err != nil {
		t.Fatal(err)
	}
	spelled := def
	spelled.MCFPhases, spelled.MCFEpsilon, spelled.TargetStage1Avg = mcf.DefaultPhases, mcf.DefaultEpsilon, 0
	if got, err := Normalize(spelled); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("mcf with its defaults spelled out normalized to %+v (%v), want %+v", got, err, want)
	}

	// Params.Validate's rules apply on every engine before a key exists.
	for _, name := range Names() {
		p := core.DefaultParams()
		p.Backend = name
		p.MaxRipupPasses = 0
		if _, err := Normalize(p); err == nil {
			t.Errorf("engine %q accepted zero rip-up passes", name)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, e Engine) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(e)
	}
	mustPanic("duplicate", pipelineEngine{name: NameRabid})
	mustPanic("empty", emptyNameEngine{})
}

type emptyNameEngine struct{}

func (emptyNameEngine) Name() string     { return "" }
func (emptyNameEngine) Describe() string { return "" }
func (emptyNameEngine) Plan(context.Context, *netlist.Circuit, core.Params) (*core.Result, error) {
	return nil, nil
}

// TestPlanAllEngines runs the same circuit through every registered engine
// and checks the shared contract: a result with per-stage stats, buffers
// placed, and final constraint accounting.
func TestPlanAllEngines(t *testing.T) {
	c := testCircuit(t, 7, 30, 10, 10, 3, 4)
	wantStages := map[string]int{NameRabid: 4, NameRabidLib: 4, NameMCF: 3}
	for _, name := range Names() {
		p := core.DefaultParams()
		p.Backend = name
		res, err := Plan(context.Background(), c, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Stages) != wantStages[name] {
			t.Errorf("%s: %d stages, want %d", name, len(res.Stages), wantStages[name])
		}
		if res.TotalBuffers() == 0 {
			t.Errorf("%s: no buffers placed", name)
		}
	}
}

// scrub zeroes the fields that legitimately vary between runs — wall-clock
// stage times and the Params echo (Normalize fills Backend, and Workers is
// varied by the determinism test) — so DeepEqual compares the plan itself.
func scrub(r *core.Result) *core.Result {
	r.Params = core.Params{}
	for i := range r.Stages {
		r.Stages[i].CPU = 0
	}
	return r
}

// TestPlanRabidMatchesCore pins the refactor: the "rabid" engine is the
// pre-existing pipeline behind a name, identical to core.Run.
func TestPlanRabidMatchesCore(t *testing.T) {
	spec, err := floorplan.BySuiteName("apte")
	if err != nil {
		t.Fatal(err)
	}
	c, err := floorplan.Generate(spec, floorplan.Options{GridW: 10, GridH: 11})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.TargetStage1Avg = 0.15 // apte's suite calibration
	direct, err := core.Run(c, p)
	if err != nil {
		t.Fatal(err)
	}
	viaBackend, err := Plan(context.Background(), c, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrub(direct), scrub(viaBackend)) {
		t.Error("rabid engine result differs from core.Run")
	}
}

// TestPlanDeterministic checks each engine returns identical results across
// repeated runs and worker counts (the rounding seed and DP are seeded).
func TestPlanDeterministic(t *testing.T) {
	c := testCircuit(t, 3, 20, 8, 8, 3, 4)
	for _, name := range Names() {
		var base *core.Result
		for _, workers := range []int{1, 2, 4} {
			p := core.DefaultParams()
			p.Backend = name
			p.Workers = workers
			res, err := Plan(context.Background(), c, p)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			scrub(res)
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(base, res) {
				t.Errorf("%s: workers=%d result differs from workers=1", name, workers)
			}
		}
	}
}

// TestPlanUnknownEngine checks Plan surfaces Normalize errors.
func TestPlanUnknownEngine(t *testing.T) {
	c := testCircuit(t, 5, 5, 6, 6, 3, 4)
	p := core.DefaultParams()
	p.Backend = "bogus"
	if _, err := Plan(context.Background(), c, p); err == nil {
		t.Fatal("Plan with unknown engine succeeded")
	}
}
