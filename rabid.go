// Package rabid is a from-scratch reproduction of "A Practical Methodology
// for Early Buffer and Wire Resource Allocation" (Alpert, Hu, Sapatnekar,
// Villarrubia; DAC 2001 / IEEE TCAD 2003): the buffer-site methodology and
// the four-stage RABID heuristic for simultaneous early buffer and wire
// planning on a tile graph.
//
// This package is the public facade over the implementation packages in
// internal/: it re-exports the problem model (circuits, nets, tile length
// constraints), the benchmark suite cloned from the paper's Table I, the
// RABID pipeline, the BBP/FR comparison baseline, and the experiment
// harness that regenerates the paper's Tables I-V.
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

	"repro/internal/anneal"
	"repro/internal/backend"
	"repro/internal/bbp"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/decap"
	"repro/internal/delay"
	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/flow"
	"repro/internal/layers"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/server"
	"repro/internal/siteplan"
	"repro/internal/slew"
	"repro/internal/tech"
	"repro/internal/textable"
	"repro/internal/vanginneken"
	"repro/internal/viz"
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

// BBPResult is the outcome of the buffer-block planning baseline.
type BBPResult = bbp.Result

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

// RouteWorkspacePool recycles the router's scratch workspaces across runs.
// A long-lived embedder sets Params.WorkspacePool to one pool so repeated
// Run calls reuse the warmed wavefront arrays instead of re-growing them
// (the planning server does this per process). Purely a memory-reuse
// mechanism: results and cache keys are identical with or without it.
type RouteWorkspacePool = route.Pool

// NewRouteWorkspacePool returns an empty workspace pool.
func NewRouteWorkspacePool() *RouteWorkspacePool { return route.NewPool() }

// RunContext is Run with cooperative cancellation: the pipeline checks ctx
// at stage boundaries, rip-up-pass boundaries, and per-net dispatch, so an
// expired deadline aborts the run promptly with ctx's error. A run that
// completes is bit-identical to Run — cancellation can stop work, never
// change results.
func RunContext(ctx context.Context, c *Circuit, p Params) (*Result, error) {
	return core.RunContext(ctx, c, p)
}

// RunBBP runs the BBP/FR baseline on a two-pin-decomposed circuit with the
// given uniform edge capacity. o taps the run's telemetry ("bbp.run" span);
// pass nil for an untapped, clock-free run (BBPResult.CPU stays zero).
func RunBBP(c *Circuit, capacity int, t Tech, o Observer) (*BBPResult, error) {
	return bbp.Run(c, capacity, t, o)
}

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

// --- delay, slew, and sized buffers -----------------------------------

// PlacedBuffer is a buffer with an explicit gate from a library.
type PlacedBuffer = delay.Placed

// DelayEvaluator computes Elmore sink delays on buffered routed trees.
type DelayEvaluator = delay.Evaluator

// NewDelayEvaluator builds an evaluator for a technology and tile size.
func NewDelayEvaluator(t Tech, tileUm float64) (DelayEvaluator, error) {
	return delay.NewEvaluator(t, tileUm)
}

// SlewEvaluator computes worst 10-90% slews and derives length constraints
// from a slew target (the physical grounding of the paper's length rule).
type SlewEvaluator = slew.Evaluator

// NewSlewEvaluator builds a slew evaluator.
func NewSlewEvaluator(t Tech, tileUm float64) (SlewEvaluator, error) {
	return slew.NewEvaluator(t, tileUm)
}

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

// --- floorplan annealing -------------------------------------------------

// AnnealBlock, AnnealNet, and AnnealOptions parameterize the slicing
// simulated annealer; AnnealResult is a placed floorplan.
type (
	AnnealBlock   = anneal.Block
	AnnealNet     = anneal.Net
	AnnealOptions = anneal.Options
	AnnealResult  = anneal.Result
)

// AnnealFloorplan places blocks with the wirelength-aware slicing annealer.
func AnnealFloorplan(blocks []AnnealBlock, nets []AnnealNet, opt AnnealOptions) (*AnnealResult, error) {
	return anneal.Floorplan(blocks, nets, opt)
}

// --- floorplan evaluation loop ---------------------------------------------

// FlowCandidate and FlowOptions drive the paper's intended use: rank
// floorplan candidates by their post-planning metrics instead of raw,
// meaningless pre-buffering slack.
type (
	FlowCandidate = flow.Candidate
	FlowOptions   = flow.Options
)

// EvaluateFloorplans generates, plans, and ranks floorplan candidates of a
// benchmark spec, best first.
func EvaluateFloorplans(spec Spec, opt FlowOptions) ([]*FlowCandidate, error) {
	return flow.EvaluateCandidates(spec, opt)
}

// --- decap / spare-cell utilization ---------------------------------------

// DecapReport summarizes the unused buffer sites of a completed run as
// decoupling capacitance and ECO spare area (Section I-B's point that
// reserved sites are never wasted).
type DecapReport = decap.Report

// AnalyzeDecap builds the utilization report from a completed run.
func AnalyzeDecap(res *Result) (*DecapReport, error) {
	return decap.Analyze(res.Circuit, res.Graph)
}

// --- planning backends ----------------------------------------------------

// LibGate is one gate of a planning buffer library: an electrical model
// plus an area cost and an inverting flag. Params.Library, together with
// Params.Backend = "rabid+lib", runs the Stage-3 DP over the library
// (drive-scaled length constraints, area-scaled site costs, inverter
// polarity tracking) instead of the single planning buffer.
type LibGate = tech.LibGate

// DefaultPlanningLibrary018 returns the default 0.18 um planning library:
// 1x/2x/4x buffers and 1x/2x inverters, area costs relative to the 1x
// planning buffer.
func DefaultPlanningLibrary018() []LibGate { return tech.DefaultPlanningLibrary018() }

// Backends returns the registered planning-engine names ("mcf", "rabid",
// "rabid+lib"), sorted.
func Backends() []string { return backend.Names() }

// SteinerModes returns the Stage-1 construction names ("pd", "costdist")
// accepted by Params.SteinerMode.
func SteinerModes() []string { return core.SteinerModes() }

// DescribeBackend returns the one-line summary of a registered engine
// ("" names the default).
func DescribeBackend(name string) (string, bool) {
	e, ok := backend.Lookup(name)
	if !ok {
		return "", false
	}
	return e.Describe(), true
}

// NormalizeParams canonicalizes p (Backend "" → "rabid"; "rabid+lib" with
// no Library → the default library) and validates it: against the
// registry, against the selected engine (a library only on "rabid+lib",
// mcf knobs only on "mcf") and against Params.Validate. Plan and the HTTP
// service apply it automatically; call it directly when deriving cache
// keys by hand.
func NormalizeParams(p Params) (Params, error) { return backend.Normalize(p) }

// Plan runs the planning engine named by p.Backend ("" = the rabid
// pipeline, making Plan a superset of RunContext). Engines are
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

// ProgressObserver renders log-kind events (the experiment harness's
// progress lines) to w, one per line.
func ProgressObserver(w io.Writer) Observer { return obs.Progress(w) }

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

// --- visualization -------------------------------------------------------

// PlanSVG renders a completed run (blocks, congestion heat, routes,
// buffers) as an SVG document.
func PlanSVG(res *Result) string {
	return viz.SVG(res.Circuit, viz.SVGOptions{Graph: res.Graph, Routes: res.Routes})
}

// CongestionASCII renders the run's per-tile wire congestion as text.
func CongestionASCII(res *Result) string {
	return viz.ASCII(viz.WireHeat(res.Graph), res.Circuit.GridW, res.Circuit.GridH)
}

// BufferDensityASCII renders the run's per-tile buffer occupancy as text.
func BufferDensityASCII(res *Result) string {
	return viz.ASCII(viz.BufferHeat(res.Graph), res.Circuit.GridW, res.Circuit.GridH)
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

// --- planning service -----------------------------------------------------

// ServerConfig and PlanServer expose the HTTP planning service (see
// internal/server and cmd/rabidd): POST /v1/plan and /v1/bbp with bounded
// admission, per-request deadlines, and a content-addressed result cache;
// GET /v1/healthz and /v1/metricz for probing and telemetry.
type (
	ServerConfig = server.Config
	PlanServer   = server.Server
)

// NewPlanServer builds the planning service; serve its Handler with any
// http.Server (cmd/rabidd is the packaged daemon).
func NewPlanServer(cfg ServerConfig) *PlanServer { return server.New(cfg) }

// PlanCacheKey returns the content address of a planning run — the hex
// SHA-256 of the canonical (circuit, params, tech) serialization the
// service's cache and ETags use. Params are normalized first (see
// NormalizeParams) so the empty and explicit spellings of an engine share
// one address. It fails for params carrying a custom route weight,
// which cannot be addressed by content, and for params NormalizeParams
// refuses.
func PlanCacheKey(c *Circuit, p Params) (string, error) {
	p, err := backend.Normalize(p)
	if err != nil {
		return "", err
	}
	return cache.PlanKey(c, p)
}
