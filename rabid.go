// Package rabid is a from-scratch reproduction of "A Practical Methodology
// for Early Buffer and Wire Resource Allocation" (Alpert, Hu, Sapatnekar,
// Villarrubia; DAC 2001 / IEEE TCAD 2003): the buffer-site methodology and
// the four-stage RABID heuristic for simultaneous early buffer and wire
// planning on a tile graph.
//
// This package is the public facade over the implementation packages in
// internal/: it re-exports the problem model (circuits, nets, tile length
// constraints), the benchmark suite cloned from the paper's Table I, the
// RABID pipeline and its planning engines, and the experiment harness
// that regenerates the paper's Tables I-V (the BBP/FR comparison baseline
// included).
//
// Quick start:
//
//	c, _ := rabid.GenerateBenchmark("apte", rabid.GenOptions{})
//	res, _ := rabid.Run(c, rabid.DefaultParams())
//	for _, s := range res.Stages {
//	    fmt.Printf("stage %d: %d buffers, %d overflows\n", s.Stage, s.Buffers, s.Overflows)
//	}
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package rabid

import (
	"context"
	"io"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/layers"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/siteplan"
	"repro/internal/tech"
	"repro/internal/textable"
	"repro/internal/vanginneken"
)

// Problem model.
type (
	// Circuit is a complete planning instance: tiling, nets, buffer sites.
	Circuit = netlist.Circuit
	// Net is a multi-sink global net with a tile length constraint L.
	Net = netlist.Net
	// Pin is a net terminal.
	Pin = netlist.Pin
)

// RABID pipeline.
type (
	// Params configures a RABID run (Prim-Dijkstra alpha, router options,
	// rip-up passes, capacity calibration, technology, and Workers — the
	// bound on the deterministic per-net worker pool; 0 means GOMAXPROCS,
	// and results are bit-identical for every value).
	Params = core.Params
	// Result is a completed run: per-stage statistics, final routes,
	// buffer assignments, and the tile graph.
	Result = core.Result
	// StageStats reports the paper's Table II columns for one stage.
	StageStats = core.StageStats
)

// Benchmarks.
type (
	// Spec is one Table I benchmark description.
	Spec = floorplan.Spec
	// GenOptions override a Spec (grid, buffer-site budget, seed).
	GenOptions = floorplan.Options
)

// Technology.
type (
	// Tech is the process model used for Elmore delay reporting.
	Tech = tech.Tech
	// Gate is the electrical model of a buffer.
	Gate = tech.Gate
)

// RetimeReport records the effect of timing-driven re-buffering on one net.
type RetimeReport = vanginneken.RetimeReport

// DefaultLibrary018 returns the sized buffer library (1x/2x/4x) used by
// the timing-driven re-buffering pass.
func DefaultLibrary018() []Gate { return tech.DefaultLibrary018() }

// RetimeCriticalNets re-buffers the k worst-delay nets of a completed run
// with delay-optimal van Ginneken insertion over the remaining free buffer
// sites — the paper's "later in the design flow" timing-driven follow-up.
func RetimeCriticalNets(res *Result, k int, lib []Gate) ([]RetimeReport, error) {
	return vanginneken.RetimeCriticalNets(res, k, lib)
}

// DefaultParams returns the paper's parameter set (alpha 0.4, three rip-up
// passes, calibrated capacities, 0.18 um technology).
func DefaultParams() Params { return core.DefaultParams() }

// Default018 returns the 0.18 um technology used by the experiments.
func Default018() Tech { return tech.Default018() }

// Run executes the four-stage RABID heuristic on a circuit.
func Run(c *Circuit, p Params) (*Result, error) { return core.Run(c, p) }

// Suite returns the ten benchmark specs of the paper's Table I.
func Suite() []Spec { return floorplan.Suite() }

// BenchmarkSpec looks up a suite benchmark by name.
func BenchmarkSpec(name string) (Spec, error) { return floorplan.BySuiteName(name) }

// GenerateBenchmark builds a named suite circuit (with optional overrides).
func GenerateBenchmark(name string, opt GenOptions) (*Circuit, error) {
	return exp.Generate(name, opt)
}

// GenerateCircuit builds a circuit from an arbitrary spec.
func GenerateCircuit(spec Spec, opt GenOptions) (*Circuit, error) {
	return floorplan.Generate(spec, opt)
}

// BenchmarkParams returns the RABID parameters used by the experiments for
// a named suite circuit (per-circuit capacity calibration).
func BenchmarkParams(name string) Params { return exp.ParamsFor(name) }

// ReadCircuit deserializes and validates a circuit from JSON.
func ReadCircuit(r io.Reader) (*Circuit, error) { return netlist.ReadJSON(r) }

// --- layer assignment ---------------------------------------------------

// Layer scales wire parasitics for a metal-layer pair; LayerAssignment
// maps nets to layers with slew-derived per-layer L_i (paper footnote 4).
type (
	Layer           = layers.Layer
	LayerAssignment = layers.Assignment
)

// DefaultStack018 returns the thin/thick layer stack for 0.18 um.
func DefaultStack018() []Layer { return layers.DefaultStack018() }

// PromoteLayers assigns the longest nets to thick metal within a budget
// and rederives every net's L from the slew target on its layer.
func PromoteLayers(c *Circuit, base Tech, stack []Layer, budgetFraction, slewTarget float64) (*LayerAssignment, error) {
	return layers.Promote(c, base, stack, budgetFraction, slewTarget)
}

// --- site planning ------------------------------------------------------

// SitePlan recommends per-block buffer-site budgets from an
// unlimited-supply RABID run (the paper's Section I-B procedure).
type (
	SitePlan        = siteplan.Plan
	SitePlanOptions = siteplan.Options
)

// PlanSites runs the unlimited-supply analysis.
func PlanSites(c *Circuit, opt SitePlanOptions) (*SitePlan, error) {
	return siteplan.Run(c, opt)
}

// --- planning backends ----------------------------------------------------

// Backends returns the registered planning-engine names ("mcf", "rabid",
// "rabid+lib"), sorted.
func Backends() []string { return backend.Names() }

// DescribeBackend returns the one-line summary of a registered engine
// ("" names the default).
func DescribeBackend(name string) (string, bool) {
	e, ok := backend.Lookup(name)
	if !ok {
		return "", false
	}
	return e.Describe(), true
}

// NormalizeParams validates p — against Params.Validate, the registry and
// the selected engine (a library only on "rabid+lib", mcf knobs only on
// "mcf") — and canonicalizes it: Backend "" → "rabid", "rabid+lib" with no
// Library → the default library, and each field the engine ignores reset
// to its DefaultParams value. Plan and the HTTP service apply it
// automatically; call it directly to refuse bad parameters before a run.
func NormalizeParams(p Params) (Params, error) { return backend.Normalize(p) }

// Plan runs the planning engine named by p.Backend ("" = the rabid
// pipeline, the run Run makes) under ctx's cancellation. Engines are
// deterministic: identical inputs produce identical results at every
// Workers value.
func Plan(ctx context.Context, c *Circuit, p Params) (*Result, error) {
	return backend.Plan(ctx, c, p)
}

// --- observability --------------------------------------------------------

// Observability types: Params.Observer taps a run's structured telemetry —
// hierarchical trace spans (run → stage → rip-up pass → per-net
// operation), work counters and state gauges, and per-stage congestion
// heat snapshots. With no observer attached the pipeline builds no events
// and reads no clocks; with one attached the event stream is deterministic
// for every Params.Workers value (only span durations vary).
type (
	// Observer is the telemetry hook (Params.Observer).
	Observer = obs.Observer
	// TelemetryEvent is one record of the event stream.
	TelemetryEvent = obs.Event
	// TelemetryKind discriminates span/counter/gauge/heat/log events.
	TelemetryKind = obs.Kind
	// MetricsObserver aggregates counters, gauges, power-of-two-bucket
	// histograms, and span statistics, keyed "scope.stage"; it dumps as
	// expvar-style JSON (WriteJSON) or a human summary (WriteSummary).
	MetricsObserver = obs.Metrics
	// JSONObserver streams events as JSON lines. By default it omits the
	// wall-clock duration field so traces are byte-identical across worker
	// counts; set Durations to true to include it.
	JSONObserver = obs.JSONLines
)

// NewJSONObserver returns an observer writing one JSON object per event
// to w (see JSONObserver; check Err after the run).
func NewJSONObserver(w io.Writer) *JSONObserver { return obs.NewJSONLines(w) }

// NewMetricsObserver returns an empty aggregating metrics registry.
func NewMetricsObserver() *MetricsObserver { return obs.NewMetrics() }

// MultiObserver fans events out to several observers; nils are dropped
// and a fully-nil argument list returns nil (keeping the zero-cost path).
func MultiObserver(os ...Observer) Observer { return obs.Multi(os...) }

// SetTableObserver installs an observer tapping every RABID run performed
// by Table and receiving its progress lines as log events; the sink must
// be safe for concurrent use (all sinks in this package are). Pass nil to
// detach. Not safe to call while a Table call is in flight.
func SetTableObserver(o Observer) { exp.Observer = o }

// StartProfiles starts the stdlib profilers selected by non-empty paths —
// a CPU profile, a runtime/trace, and/or a heap profile written on stop —
// and returns the function that stops them and flushes the files.
func StartProfiles(cpuPath, tracePath, memPath string) (stop func() error, err error) {
	return obs.StartProfiles(cpuPath, tracePath, memPath)
}

// Table regenerates one of the experiment tables, logging progress to log
// (may be nil): 1-5 are the paper's Tables I-V; 6 is this reproduction's
// cross-backend comparison (rabid / rabid+lib / mcf over the ten-circuit
// suite at a coarse tiling). The returned table renders with String().
func Table(n int, log io.Writer) (*textable.Table, error) {
	switch n {
	case 1:
		return exp.Table1(log)
	case 2:
		return exp.Table2(log)
	case 3:
		return exp.Table3(log)
	case 4:
		return exp.Table4(log)
	case 5:
		return exp.Table5(log)
	case 6:
		return exp.Table6(log)
	}
	return nil, errUnknownTable(n)
}

type errUnknownTable int

func (e errUnknownTable) Error() string {
	return "rabid: unknown table (want 1-6)"
}
