// Package core implements RABID — Resource Allocation for Buffer and
// Interconnect Distribution — the paper's four-stage heuristic:
//
//  1. initial Steiner tree construction (Prim–Dijkstra + overlap removal),
//  2. wire congestion reduction (Nair-style full rip-up-and-reroute under
//     the Eq. (1) cost),
//  3. buffer assignment (length-based dynamic programming under the Eq. (2)
//     cost with the probabilistic demand term p(v)),
//  4. final post-processing (per-two-path rip-up-and-reroute under the
//     combined cost, then buffer reinsertion).
//
// Run returns per-stage statistics matching the columns of the paper's
// Table II.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/bufferdp"
	"repro/internal/delay"
	"repro/internal/geom"
	"repro/internal/mcf"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/route"
	"repro/internal/rtree"
	"repro/internal/steiner"
	"repro/internal/tech"
	"repro/internal/tile"
	"repro/internal/viz"
)

// Params configures a RABID run.
type Params struct {
	// Alpha is the Prim–Dijkstra radius/wirelength tradeoff (paper: 0.4).
	Alpha float64
	// RouteOpt configures the congestion-driven router of Stages 2 and 4.
	RouteOpt route.Options
	// MaxRipupPasses bounds Stage 2 (paper: 3 complete iterations).
	MaxRipupPasses int
	// Capacity is the uniform edge capacity W(e); 0 calibrates it so that
	// the Stage-1 average congestion is TargetStage1Avg (see DESIGN.md —
	// the paper never tabulates W(e)).
	Capacity int
	// TargetStage1Avg is the calibration target (default 0.25).
	TargetStage1Avg float64
	// Tech is the technology used for Elmore delay reporting.
	Tech tech.Tech
	// SkipStage4 disables post-processing (for stage ablations).
	SkipStage4 bool
	// DisableDemandTerm zeroes the probabilistic p(v) term of Eq. (2)
	// (for ablations of the Stage-3 cost).
	DisableDemandTerm bool
	// UseMCFRouter replaces the Stage-2 rip-up-and-reroute with the
	// multicommodity-flow global router — the alternative the paper names
	// ("e.g., the multicommodity flow-based approach of [1]").
	UseMCFRouter bool
	// MCFPhases and MCFEpsilon expose the multicommodity-flow router's
	// knobs (see mcf.Options): the number of routing phases and the
	// exponential length step. Zero means the engine default (12 phases,
	// epsilon 0.3). Both are result-affecting and flow into the
	// content-addressed cache key; they only matter on the mcf paths
	// (UseMCFRouter or the "mcf" backend) but are validated up front for
	// every run so a bad value fails fast rather than mid-pipeline.
	MCFPhases  int
	MCFEpsilon float64
	// SearchKernel selects the router's wavefront implementation for every
	// Stage-2/Stage-4 search in the run ("heap", "dial", "astar"; "" means
	// "heap" — see route.Kernels). "dial" is byte-identical to "heap" on
	// every input; "astar" returns identical path costs with fewer pops
	// (popped order — and hence tree tie-breaks — may differ, so it mints
	// its own cache key). A non-empty value overrides RouteOpt.Kernel.
	SearchKernel string
	// SteinerMode selects the Stage-1 construction objective ("pd",
	// "costdist"; "" means "pd"). "pd" is the paper's Prim–Dijkstra
	// tradeoff tree at Alpha. "costdist" builds Held–Perner-style
	// cost-distance trees with per-net weight 1/L, and reroutes Stage 2 at
	// alpha = 1 (pure congestion-priced shortest paths, the regime where
	// the astar kernel's heuristic provably engages): the tradeoff is
	// carried per net by the construction objective instead of the global
	// Alpha, so the reroute can optimize distance under congestion alone.
	SteinerMode string
	// Backend names the planning engine ("rabid", "rabid+lib", "mcf"; ""
	// means "rabid"). The core pipeline does not dispatch on it — that is
	// internal/backend's job — but it lives here so one Params value
	// describes a plan request end to end and the content-addressed cache
	// keys cover engine identity (see internal/cache planMaterial).
	Backend string
	// Library is the planning buffer library for the multi-type Stage-3 DP
	// (the rabid+lib backend). Empty means the single planning buffer
	// Tech.Buffer — the paper's configuration. When non-empty, every DP run
	// chooses per-buffer gates from this library (each gate's length
	// constraint is the net's L scaled by its drive strength, its site cost
	// scaled by its area; inverters must pair up via polarity tracking) and
	// delay evaluation uses the chosen gates.
	Library []tech.LibGate
	// Workers bounds the goroutines used for the parallel sections: the
	// order-independent per-net work (Stage-1 Steiner construction, the
	// delay refresh after every stage, the per-net snapshot accounting)
	// and the Stage-2 speculative rip-up engine (route.Parallel). 0 (the
	// default) means GOMAXPROCS. Results are bit-identical for every value
	// — per-net workers write only to their own net's slot, shared
	// tile-graph mutation stays sequential, and the speculative engine
	// commits in net order with conflict replay (see DESIGN.md, "Parallel
	// execution model" and "Parallel rip-up-and-reroute").
	Workers int
	// Observer receives the run's structured telemetry: trace spans,
	// counters, gauges, and congestion-heat snapshots (see internal/obs).
	// nil disables observation at zero cost — no events are built and the
	// per-net/per-pass spans read no clocks (only the coarse run and stage
	// CPU timers behind StageStats.CPU always run; the tables' cpu(s)
	// column prints untapped). The event stream is deterministic for every Workers
	// value (parallel sections buffer per net and flush in index order);
	// only span durations vary run to run.
	Observer obs.Observer
	// WorkspacePool, when non-nil, supplies the run's router scratch
	// workspace and takes it back afterwards, so a long-lived caller (the
	// planning server) reuses the warmed arrays across runs. nil allocates
	// a private workspace per run. Like Workers and Observer this is pure
	// mechanism: it never affects results and is deliberately excluded from
	// cache keys (see internal/cache planMaterial).
	WorkspacePool *route.Pool
}

// Steiner-mode names accepted by Params.SteinerMode.
const (
	SteinerPD       = "pd"
	SteinerCostDist = "costdist"
)

// SteinerModes lists the accepted Stage-1 construction objectives.
func SteinerModes() []string { return []string{SteinerPD, SteinerCostDist} }

// DefaultParams returns the paper's parameter set.
func DefaultParams() Params {
	return Params{
		Alpha:           0.4,
		RouteOpt:        route.DefaultOptions(),
		MaxRipupPasses:  3,
		TargetStage1Avg: 0.25,
		Tech:            tech.Default018(),
	}
}

// StageStats reports the Table II columns after one stage.
type StageStats struct {
	Stage      int
	WireMax    float64 // max w(e)/W(e)
	WireAvg    float64 // avg w(e)/W(e)
	Overflows  int     // sum of w(e)-W(e) over overflowing edges
	BufMax     float64 // max b(v)/B(v)
	BufAvg     float64 // avg b(v)/B(v) over tiles with sites
	Buffers    int
	Fails      int     // nets violating their length constraint
	WirelenMm  float64 // total routed wirelength
	MaxDelayPs float64
	AvgDelayPs float64
	// NonFiniteDelays counts sink delays excluded from the delay columns
	// because they were NaN or ±Inf — the +Inf sentinel refreshDelays
	// plants on a broken net must never poison the aggregates.
	NonFiniteDelays int
	CPU             time.Duration
}

// Result is a completed RABID run.
type Result struct {
	Circuit  *netlist.Circuit
	Params   Params
	Capacity int
	Graph    *tile.Graph
	Routes   []*rtree.Tree
	// Assignments holds the final buffer assignment per net (nil before
	// Stage 3 for a net that has not been processed).
	Assignments []bufferdp.Assignment
	Stages      []StageStats
}

// TotalBuffers returns the number of buffers inserted across all nets.
func (r *Result) TotalBuffers() int {
	n := 0
	for _, a := range r.Assignments {
		n += len(a.Buffers)
	}
	return n
}

// state carries the pipeline between stages.
type state struct {
	ctx    context.Context
	c      *netlist.Circuit
	p      Params
	g      *tile.Graph
	eval   delay.Evaluator
	routes []*rtree.Tree
	asg    []bufferdp.Assignment
	hasAsg []bool
	delays []float64 // per-net max sink delay, for ordering
	obs    obs.Observer
	stage  int // current pipeline stage, stamped on emitted events
	// ws is the run's primary router workspace: it serves the sequential
	// routing of Stages 2 and 4 — including the Stage-2 commit/replay
	// section of the speculative engine, whose concurrent workers draw
	// their own workspaces from Params.WorkspacePool — and is reused
	// across nets and passes and, through Params.WorkspacePool, across
	// runs.
	ws *route.Workspace

	// Stage-3/4 and delay-evaluation scratch, reused across nets and
	// stages so that their steady state allocates nothing but results (see
	// DESIGN.md, "Router hot path").
	dp     bufferdp.Scratch
	sites  siteCheck
	paths  rtree.TwoPathSet
	done   []uint64  // reworked two-paths of the current net: sorted (head, tail) tile-index pairs
	walk   []geom.Pt // the ripped two-path, tail to head: the reconnection search's incumbent
	splice splicer
	slots  []evalSlot // per worker slot of refreshDelays and snapshot
	snap   struct {
		fail, ok []bool    // per net
		off      []int     // net i's sink delays are ds[off[i]:off[i+1]]
		ds       []float64 // per sink, in net order
	}
}

// siteCheck is assignNet's per-tile bookkeeping, epoch-stamped so each net
// and each DP run touches only the tiles it uses: a tile is banned for the
// current net while banStamp == banEp, and want counts the current
// solution's buffers in a tile while wantStamp == wantEp.
type siteCheck struct {
	banEp, wantEp       uint64
	banStamp, wantStamp []uint64
	want                []int32
}

// evalSlot is one worker slot's delay-evaluation memory.
type evalSlot struct {
	sc    delay.Scratch
	gates []tech.Gate
}

// Run executes the full RABID pipeline on the circuit.
func Run(c *netlist.Circuit, p Params) (*Result, error) {
	return RunContext(context.Background(), c, p) //rabid:allow ctxflow Run is the documented Background wrapper over RunContext for context-free callers (tables, benches); service paths call RunContext
}

// RunContext is Run with cooperative cancellation. The pipeline checks ctx
// at every stage boundary, at every Stage-2 rip-up pass boundary, before
// each per-net DP assignment and rework of Stages 3-4, and inside the
// worker-pool dispatch of the parallel per-net sections (par.ForEachCtx) —
// so a cancelled or expired context aborts the run promptly at the next
// checkpoint, returning an error that wraps ctx.Err(). A run that completes
// is bit-identical to Run's: cancellation can only abort a run, never
// change its result, because no checkpoint alters any computation.
func RunContext(ctx context.Context, c *netlist.Circuit, p Params) (*Result, error) {
	st, err := newState(ctx, c, p)
	if err != nil {
		return nil, err
	}
	defer p.WorkspacePool.Put(st.ws)
	return st.execute([]pipeStage{
		{1, st.stage1},
		{2, st.stage2},
		{3, st.stage3},
		{4, st.stage4},
	}, p.SkipStage4)
}

// RunMCF executes the multicommodity-flow buffered-routing pipeline (the
// "mcf" planning backend): Stage 1 builds the initial Steiner routes and
// the calibrated tile graph exactly as the rabid pipeline does; Stage 2
// replaces rip-up-and-reroute with the full fractional MCF relaxation —
// site-aware edge lengths pricing buffer scarcity into the length system,
// approximate dual updates, deterministic seeded rounding, greedy repair;
// Stage 3 runs the length-based buffer DP under the Eq. (2) site cost. The
// paper's Stage-4 post-processing is rabid-specific (it splices two-paths
// against the incremental router) and is not part of this engine.
func RunMCF(c *netlist.Circuit, p Params) (*Result, error) {
	return RunMCFContext(context.Background(), c, p) //rabid:allow ctxflow RunMCF is the documented Background wrapper over RunMCFContext for context-free callers (tables, benches); service paths call RunMCFContext
}

// RunMCFContext is RunMCF with cooperative cancellation, with the same
// checkpoint contract as RunContext (stage boundaries, MCF phase and
// per-net boundaries, per-net DP assignments, worker-pool dispatch).
func RunMCFContext(ctx context.Context, c *netlist.Circuit, p Params) (*Result, error) {
	st, err := newState(ctx, c, p)
	if err != nil {
		return nil, err
	}
	defer p.WorkspacePool.Put(st.ws)
	return st.execute([]pipeStage{
		{1, st.stage1},
		{2, st.stage2MCF},
		{3, st.stage3},
	}, false)
}

// newState validates the inputs and assembles the pipeline state shared by
// every planning engine.
func newState(ctx context.Context, c *netlist.Circuit, p Params) (*state, error) {
	if ctx == nil {
		ctx = context.Background() //rabid:allow ctxflow nil-ctx guard: a nil ctx would panic at the first checkpoint, so it is normalized to the documented Background behavior
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if p.MaxRipupPasses < 1 {
		return nil, fmt.Errorf("core: MaxRipupPasses %d < 1", p.MaxRipupPasses)
	}
	switch p.SearchKernel {
	case "", route.KernelHeap, route.KernelDial, route.KernelAstar:
	default:
		return nil, fmt.Errorf("core: unknown search kernel %q (want %v)", p.SearchKernel, route.Kernels())
	}
	if p.SearchKernel != "" {
		// Params.SearchKernel is the request-level spelling; the router
		// reads Options.Kernel, so the override lands once here and every
		// Stage-2/Stage-4 Options copy below inherits it.
		p.RouteOpt.Kernel = p.SearchKernel
	}
	switch p.SteinerMode {
	case "", SteinerPD, SteinerCostDist:
	default:
		return nil, fmt.Errorf("core: unknown steiner mode %q (want %v)", p.SteinerMode, SteinerModes())
	}
	if p.MCFPhases < 0 {
		return nil, fmt.Errorf("core: MCFPhases %d < 0", p.MCFPhases)
	}
	if p.MCFEpsilon != 0 && (p.MCFEpsilon <= 0 || p.MCFEpsilon >= 1) {
		return nil, fmt.Errorf("core: MCFEpsilon %g outside (0,1)", p.MCFEpsilon)
	}
	for i, g := range p.Library {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("core: library gate %d: %w", i, err)
		}
	}
	eval, err := delay.NewEvaluator(p.Tech, c.TileUm)
	if err != nil {
		return nil, err
	}
	return &state{
		ctx:    ctx,
		c:      c,
		p:      p,
		eval:   eval,
		routes: make([]*rtree.Tree, len(c.Nets)),
		asg:    make([]bufferdp.Assignment, len(c.Nets)),
		hasAsg: make([]bool, len(c.Nets)),
		delays: make([]float64, len(c.Nets)),
		obs:    p.Observer,
		ws:     p.WorkspacePool.Get(), // nil pool => fresh workspace
	}, nil
}

// pipeStage is one stage of a planning pipeline: its Table II stage number
// and the state method that runs it.
type pipeStage struct {
	num int
	f   func() error
}

// execute drives a pipeline to completion: the run span, per-stage timing
// and snapshot accounting, and result assembly. skipLast drops the final
// stage (Params.SkipStage4 for the rabid pipeline's ablations).
func (st *state) execute(stages []pipeStage, skipLast bool) (*Result, error) {
	res := &Result{Circuit: st.c, Params: st.p}

	// The run and stage timers read the wall clock unconditionally: the
	// cpu(s) column of the paper's tables is part of the default, untapped
	// CLI output, and these O(1)-per-run readings never feed results. Only
	// the per-net and per-pass spans stay behind the observer gate.
	tRun := time.Now() //rabid:allow wallclock run CPU is reporting-only and part of the default table output
	if st.obs != nil {
		obs.Emit(st.obs, obs.Event{Kind: obs.KindSpanBegin, Scope: "run", Net: -1})
	}
	run := func(stage int, f func() error) error {
		if err := st.ctx.Err(); err != nil {
			return fmt.Errorf("core: cancelled before stage %d: %w", stage, err)
		}
		st.stage = stage
		obs.Emit(st.obs, obs.Event{Kind: obs.KindSpanBegin, Scope: "stage", Stage: stage, Net: -1})
		t0 := time.Now() //rabid:allow wallclock stage CPU is the tables' cpu(s) column, printed untapped
		if err := f(); err != nil {
			return fmt.Errorf("core: stage %d: %w", stage, err)
		}
		s := st.snapshot(stage) //rabid:allow ctxflow snapshot accounting must run to completion once a stage finished: cancelling mid-accounting would corrupt a completed run's stats, and the next stage-boundary checkpoint aborts promptly anyway
		s.CPU = time.Since(t0)  //rabid:allow wallclock stage CPU is the tables' cpu(s) column, printed untapped
		res.Stages = append(res.Stages, s)
		st.emitStage(s)
		return nil
	}
	for i, ps := range stages {
		if skipLast && i == len(stages)-1 {
			break
		}
		if err := run(ps.num, ps.f); err != nil {
			return nil, err
		}
	}
	if st.obs != nil {
		obs.Emit(st.obs, obs.Event{Kind: obs.KindSpanEnd, Scope: "run", Net: -1, Dur: time.Since(tRun)}) //rabid:allow wallclock run CPU is reporting-only and part of the default table output
	}
	res.Capacity = st.g.Capacity(0)
	res.Graph = st.g
	res.Routes = st.routes
	res.Assignments = st.asg
	return res, nil
}

// emitStage exports one completed stage's snapshot to the observer: the
// stage span (whose duration is the stage CPU column), the Table II
// columns as stage-qualified gauges, the non-finite-delay counter, and
// the wire/buffer congestion heat fields.
func (s *state) emitStage(ss StageStats) {
	if s.obs == nil {
		return
	}
	st := ss.Stage
	gauge := func(scope string, v float64) {
		s.obs.Observe(obs.Event{Kind: obs.KindGauge, Scope: scope, Stage: st, Net: -1, Value: v})
	}
	gauge("stage.wire_max", ss.WireMax)
	gauge("stage.wire_avg", ss.WireAvg)
	gauge("stage.overflows", float64(ss.Overflows))
	gauge("stage.buf_max", ss.BufMax)
	gauge("stage.buf_avg", ss.BufAvg)
	gauge("stage.buffers", float64(ss.Buffers))
	gauge("stage.fails", float64(ss.Fails))
	gauge("stage.wirelen_mm", ss.WirelenMm)
	gauge("stage.delay_max_ps", ss.MaxDelayPs)
	gauge("stage.delay_avg_ps", ss.AvgDelayPs)
	if ss.NonFiniteDelays > 0 {
		s.obs.Observe(obs.Event{Kind: obs.KindCounter, Scope: "delay.nonfinite", Stage: st, Net: -1, Value: float64(ss.NonFiniteDelays)})
	}
	s.obs.Observe(obs.Event{Kind: obs.KindHeat, Scope: "heat.wire", Stage: st, Net: -1, Vals: viz.WireHeat(s.g)})
	s.obs.Observe(obs.Event{Kind: obs.KindHeat, Scope: "heat.buffer", Stage: st, Net: -1, Vals: viz.BufferHeat(s.g)})
	s.obs.Observe(obs.Event{Kind: obs.KindSpanEnd, Scope: "stage", Stage: st, Net: -1, Dur: ss.CPU})
}

// stage1 builds the initial Steiner routes and the calibrated tile graph.
// Route construction is pure per-net work and fans out over the worker
// pool; the capacity calibration and usage registration that follow mutate
// the shared graph and stay sequential.
func (s *state) stage1() error {
	bufs := obs.NewIndexBuffers(s.obs, len(s.c.Nets))
	costdist := s.p.SteinerMode == SteinerCostDist
	if err := par.ForEachCtx(s.ctx, s.p.Workers, len(s.c.Nets), func(i int) error {
		t0 := bufs.Now()
		var rt *rtree.Tree
		var err error
		if costdist {
			rt, err = steiner.InitialRouteCostDistance(s.c.Nets[i])
		} else {
			rt, err = steiner.InitialRoute(s.c.Nets[i], s.p.Alpha)
		}
		if err != nil {
			return err
		}
		s.routes[i] = rt
		if bufs.Active() {
			bufs.Emit(i, obs.Event{Kind: obs.KindSpanEnd, Scope: "net.steiner", Stage: 1,
				Net: s.c.Nets[i].ID, Dur: bufs.Since(t0)})
		}
		return nil
	}); err != nil {
		return err
	}
	bufs.Flush()
	// Register usage on a provisional graph to calibrate capacity.
	prov, err := tile.New(s.c.GridW, s.c.GridH, s.c.BufferSites, 1)
	if err != nil {
		return err
	}
	for _, rt := range s.routes {
		route.AddUsage(prov, rt)
	}
	capacity := s.p.Capacity
	if capacity == 0 {
		target := s.p.TargetStage1Avg
		if target <= 0 {
			target = 0.25
		}
		capacity = tile.CalibrateCapacity(prov.UsageSnapshot(), prov.NumEdges(), target)
	}
	s.g, err = tile.New(s.c.GridW, s.c.GridH, s.c.BufferSites, capacity)
	if err != nil {
		return err
	}
	obs.Emit(s.obs, obs.Event{Kind: obs.KindGauge, Scope: "stage1.capacity", Stage: 1, Net: -1, Value: float64(capacity)})
	for _, rt := range s.routes {
		route.AddUsage(s.g, rt)
	}
	return s.refreshDelays()
}

// stage2 reduces wire congestion by whole-net rip-up and reroute, or by
// the multicommodity-flow router when configured.
func (s *state) stage2() error {
	if s.p.UseMCFRouter {
		mopt := mcf.Options{RouteOpt: s.p.RouteOpt, Obs: s.obs,
			Phases: s.p.MCFPhases, Epsilon: s.p.MCFEpsilon}
		mopt.RouteOpt.Stage = 2
		res, err := mcf.RouteCtx(s.ctx, s.g, s.c.Nets, mopt)
		if err != nil {
			return err
		}
		for i, rt := range res.Routes {
			route.RemoveUsage(s.g, s.routes[i])
			s.routes[i] = rt
			route.AddUsage(s.g, rt)
		}
		return s.refreshDelays()
	}
	order := s.orderByDelay(false) // smallest delay first
	opt := s.p.RouteOpt
	opt.Obs, opt.Stage = s.obs, 2
	if s.p.SteinerMode == SteinerCostDist {
		// Cost-distance mode carries the radius/wirelength tradeoff per net
		// in the Stage-1 objective, so the reroute optimizes congestion-
		// priced distance alone — and at alpha = 1 the astar kernel's
		// heuristic is provably engaged (see route/kernel.go).
		opt.Alpha = 1
	}
	// The speculative engine is threaded unconditionally: its protocol is
	// worker-count-independent, so results and event streams match the
	// sequential kernel bit for bit at every Workers value (the parallel
	// determinism suite pins this).
	px := route.NewParallel(s.p.Workers, s.p.WorkspacePool)
	if _, err := route.ReduceCongestionCtx(s.ctx, s.g, s.c.Nets, s.routes, order, s.p.MaxRipupPasses, opt, s.ws, px); err != nil {
		return err
	}
	return s.refreshDelays()
}

// The mcf engine's Stage-2 knobs. The rounding seed is fixed: the engine
// is deterministic by construction, and distinct engines never alias in
// the result cache because the content key covers backend identity. The
// site weight prices buffer-site scarcity into the fractional length
// system (see mcf.Options.SiteWeight); 0.5 biases routes toward site-rich
// regions without overriding wire capacity as the primary resource.
const (
	mcfEngineSiteWeight   = 0.5
	mcfEngineRoundingSeed = 1
)

// stage2MCF is the mcf engine's Stage 2: the full multicommodity-flow
// buffered routing over the Stage-1 trees — fractional relaxation under
// site-aware exponential lengths, approximate dual updates with a
// lower-bound certificate, seeded (deterministic) randomized rounding,
// and greedy repair. Unlike the rabid Stage 2 it is not incremental: the
// relaxation re-prices every edge each phase, and the selected trees
// replace the Stage-1 routes wholesale.
func (s *state) stage2MCF() error {
	mopt := mcf.Options{
		RouteOpt:   s.p.RouteOpt,
		Obs:        s.obs,
		SiteWeight: mcfEngineSiteWeight,
		Seed:       mcfEngineRoundingSeed,
		Phases:     s.p.MCFPhases,
		Epsilon:    s.p.MCFEpsilon,
	}
	mopt.RouteOpt.Stage = 2
	res, err := mcf.RouteCtx(s.ctx, s.g, s.c.Nets, mopt)
	if err != nil {
		return err
	}
	for i, rt := range res.Routes {
		route.RemoveUsage(s.g, s.routes[i])
		s.routes[i] = rt
		route.AddUsage(s.g, rt)
	}
	return s.refreshDelays()
}

// stage3 assigns buffer sites to every net with the length-based DP.
func (s *state) stage3() error {
	// Defense in depth behind Circuit.Validate: a net with L < 1 would
	// contribute 1/L = +Inf (or negative) demand to every tile it crosses,
	// poisoning the Eq. (2) site cost for all later nets.
	for i := range s.c.Nets {
		if L := s.c.Nets[i].L; L < 1 {
			return fmt.Errorf("core: net %d: length constraint %d < 1 would poison the demand term", s.c.Nets[i].ID, L)
		}
	}
	// Prime the demand term p(v): every unprocessed net contributes 1/L to
	// each tile its route crosses.
	if !s.p.DisableDemandTerm {
		for i, rt := range s.routes {
			s.addDemand(rt, 1/float64(s.c.Nets[i].L))
		}
	}
	order := s.orderByDelay(true) // highest delay first
	for _, i := range order {
		// Per-net checkpoint: the DP is the pipeline's hottest loop, so a
		// deadline must be able to land between nets, not only at stage
		// boundaries. The demand decrement happens after the check so a
		// cancelled run leaves p(v) consistent with the nets processed.
		if err := s.ctx.Err(); err != nil {
			return err
		}
		if !s.p.DisableDemandTerm {
			s.addDemand(s.routes[i], -1/float64(s.c.Nets[i].L))
		}
		if err := s.assignNet(i); err != nil {
			return err
		}
	}
	return s.refreshDelays()
}

// assignNet runs the DP for net i on its current route and commits the
// buffers to the tile graph. Because q(v) is evaluated once per net (as in
// the paper), a decoupling solution can ask for more buffers in one tile
// than it has free sites; such tiles are banned for this net and the DP is
// re-run, so that b(v) <= B(v) is never violated.
func (s *state) assignNet(i int) error {
	rt := s.routes[i]
	sc := &s.sites
	if nt := s.g.NumTiles(); len(sc.banStamp) < nt {
		sc.banStamp = make([]uint64, nt)
		sc.wantStamp = make([]uint64, nt)
		sc.want = make([]int32, nt)
	}
	sc.banEp++
	banned := 0
	var a bufferdp.Assignment
	var dp bufferdp.DPStats
	var dpp *bufferdp.DPStats
	t0 := obs.Now(s.obs)
	if s.obs != nil {
		dpp = &dp
	}
	// With a buffer library configured, the multi-type DP chooses per-buffer
	// gates; its per-net view scales the net's constraint by each gate's
	// drive strength. The ban-and-rerun protocol is gate-agnostic: every
	// gate occupies one site, so the over-subscription check is unchanged.
	var lib []bufferdp.LibGate
	if len(s.p.Library) > 0 {
		lib = dpLibrary(s.p.Library, s.p.Tech.Buffer, s.c.Nets[i].L)
	}
	q := func(v int) float64 {
		ti := s.g.TileIndex(rt.Tile[v])
		if sc.banStamp[ti] == sc.banEp {
			return math.Inf(1)
		}
		return s.g.SiteCost(ti)
	}
	for {
		var err error
		if lib != nil {
			a, err = bufferdp.AssignLib(rt, s.c.Nets[i].L, lib, q, dpp)
		} else {
			a, err = s.dp.Assign(rt, s.c.Nets[i].L, q, dpp)
		}
		if err != nil {
			return err
		}
		over := -1
		sc.wantEp++
		for _, b := range a.Buffers {
			ti := s.g.TileIndex(rt.Tile[b.Node])
			if sc.wantStamp[ti] != sc.wantEp {
				sc.wantStamp[ti], sc.want[ti] = sc.wantEp, 0
			}
			sc.want[ti]++
			if int(sc.want[ti]) > s.g.Sites(ti)-s.g.UsedSites(ti) {
				over = ti
			}
		}
		if over < 0 {
			break
		}
		if sc.banStamp[over] != sc.banEp {
			sc.banStamp[over] = sc.banEp
			banned++
		}
	}
	if s.obs != nil {
		// dp holds the counters of the last (committed) DP run; the banned
		// tile count is the buffer-site contention — tiles whose free sites
		// could not honor the solution, forcing a re-run.
		id := s.c.Nets[i].ID
		emit := func(scope string, v float64) {
			s.obs.Observe(obs.Event{Kind: obs.KindCounter, Scope: scope, Stage: s.stage, Net: id, Value: v})
		}
		emit("dp.candidates", float64(dp.Candidates))
		emit("dp.pruned", float64(dp.Pruned))
		emit("dp.joins", float64(dp.Joins))
		if banned > 0 {
			emit("dp.site_contention", float64(banned))
			emit("dp.reruns", float64(banned))
		}
		s.obs.Observe(obs.Event{Kind: obs.KindSpanEnd, Scope: "net.assign", Stage: s.stage, Net: id, Dur: obs.Since(s.obs, t0)})
	}
	s.asg[i] = a
	s.hasAsg[i] = true
	for _, b := range a.Buffers {
		s.g.AddBuffer(s.g.TileIndex(rt.Tile[b.Node]))
	}
	return nil
}

// releaseNet removes net i's committed buffers from the graph. Their tiles
// are read off the route they were assigned on: a net's route changes only
// in its own rework, which runs after its release.
func (s *state) releaseNet(i int) {
	rt := s.routes[i]
	for _, b := range s.asg[i].Buffers {
		s.g.RemoveBuffer(s.g.TileIndex(rt.Tile[b.Node]))
	}
	s.asg[i] = bufferdp.Assignment{}
	s.hasAsg[i] = false
}

// stage4 post-processes each net: every two-path is ripped up and
// reconnected under the combined wire+buffer cost, then the net's buffers
// are reinserted from scratch.
func (s *state) stage4() error {
	order := s.orderByDelay(false)
	for _, i := range order {
		// Checked before releaseNet so a cancelled run never leaves a net
		// stripped of its committed buffers.
		if err := s.ctx.Err(); err != nil {
			return err
		}
		s.releaseNet(i)
		if err := s.reworkNet(i); err != nil {
			return err
		}
		if err := s.assignNet(i); err != nil {
			return err
		}
	}
	return s.refreshDelays()
}

// reworkNet reroutes net i one two-path at a time.
func (s *state) reworkNet(i int) error {
	n := s.c.Nets[i]
	ropt := s.p.RouteOpt
	ropt.Obs, ropt.Stage = s.obs, s.stage
	t0 := obs.Now(s.obs)
	nPaths := 0
	if s.obs != nil {
		defer func() {
			s.obs.Observe(obs.Event{Kind: obs.KindCounter, Scope: "rework.twopaths", Stage: s.stage, Net: n.ID, Value: float64(nPaths)})
			s.obs.Observe(obs.Event{Kind: obs.KindSpanEnd, Scope: "net.rework", Stage: s.stage, Net: n.ID, Dur: obs.Since(s.obs, t0)})
		}()
	}
	// The two-paths are re-enumerated after every splice, because the pick
	// order follows the new tree's node numbering; a two-path is named by
	// its end tiles, packed as (head, tail) tile indices into a sorted set.
	s.done = s.done[:0]
	for {
		rt := s.routes[i]
		rt.TwoPathsInto(&s.paths)
		var pick []int
		var key uint64
		var at int
		for k := 0; k < s.paths.Len(); k++ {
			p := s.paths.Path(k)
			key = uint64(s.g.TileIndex(rt.Tile[p[0]]))<<32 | uint64(s.g.TileIndex(rt.Tile[p[len(p)-1]]))
			var seen bool
			if at, seen = slices.BinarySearch(s.done, key); !seen {
				pick = p
				break
			}
		}
		if pick == nil {
			return nil
		}
		s.done = slices.Insert(s.done, at, key)
		head := rt.Tile[pick[0]]
		tail := rt.Tile[pick[len(pick)-1]]
		nPaths++

		// Remove the whole net's wires, rebuild the tree with the new
		// reconnection, and re-register. Blocked tiles are the tree tiles
		// that must not be crossed: everything except the ripped interior
		// and the endpoints themselves. The mask comes from the workspace
		// and is cleared entry-by-entry right after the search, keeping
		// each two-path O(tree) instead of O(grid).
		route.RemoveUsage(s.g, rt)
		blocked := s.ws.BlockedMask(s.g.NumTiles()) //rabid:allow allocfree inlined grow path: the mask is sized once per workspace
		for _, t := range rt.Tile {
			blocked[s.g.TileIndex(t)] = true
		}
		for _, v := range pick[1 : len(pick)-1] {
			blocked[s.g.TileIndex(rt.Tile[v])] = false
		}
		blocked[s.g.TileIndex(head)] = false
		blocked[s.g.TileIndex(tail)] = false
		// The ripped two-path is itself a legal reconnection; handing it to
		// the search as the incumbent bounds the search without changing
		// its result.
		s.walk = s.walk[:0]
		for x := len(pick) - 1; x >= 0; x-- {
			s.walk = append(s.walk, rt.Tile[pick[x]]) //rabid:allow allocfree amortized grow path: the walk buffer reallocates only until it has seen the run's longest two-path
		}
		newPath, err := route.BufferAwarePath(s.g, tail, head, n.L, blocked, s.walk, ropt, s.ws)
		for _, t := range rt.Tile {
			blocked[s.g.TileIndex(t)] = false
		}
		if err != nil {
			// Keep the old route if no reconnection exists (should not
			// happen: the ripped path itself is always available), and
			// count it.
			if s.obs != nil {
				s.obs.Observe(obs.Event{Kind: obs.KindCounter, Scope: "rework.noreconnect", Stage: s.stage, Net: n.ID, Value: 1})
			}
			route.AddUsage(s.g, rt)
			continue
		}
		// The spliced tree is built into a recycled carcass, and the old
		// one — referenced from nowhere else once replaced — feeds the next.
		nt := s.ws.TakeTree() //rabid:allow allocfree fresh tree only when the recycle pool is empty; each splice recycles the tree it replaces
		if err := s.splice.splice(rt, pick, newPath, nt); err != nil {
			s.ws.Recycle(nt)
			route.AddUsage(s.g, rt)
			return err
		}
		s.routes[i] = nt
		route.AddUsage(s.g, nt)
		s.ws.Recycle(rt)
	}
}

// dpLibrary converts the planning library into the DP's per-net view for a
// net with base length constraint L: each gate's length constraint is L
// scaled by its drive strength relative to the single planning buffer, and
// its site cost is scaled by its area.
func dpLibrary(lib []tech.LibGate, base tech.Gate, L int) []bufferdp.LibGate {
	out := make([]bufferdp.LibGate, len(lib))
	for i, g := range lib {
		lg := int(math.Floor(float64(L)*g.DriveScale(base) + 0.5))
		if lg < 1 {
			lg = 1
		}
		if lg > math.MaxInt16 {
			lg = math.MaxInt16
		}
		out[i] = bufferdp.LibGate{L: lg, CostScale: g.AreaCost, Invert: g.Inverting}
	}
	return out
}

// sinkDelays evaluates net i's sink delays on route rt with the gates the
// DP actually chose: the single planning buffer in single-type runs, or
// the per-buffer library gates when Params.Library is active. The result
// lives in the slot's scratch until its next use.
func (s *state) sinkDelays(sl *evalSlot, rt *rtree.Tree, i int) ([]float64, error) {
	if !s.hasAsg[i] {
		return s.eval.SinkDelaysInto(&sl.sc, rt, nil, nil)
	}
	a := s.asg[i]
	if a.Gates == nil {
		return s.eval.SinkDelaysInto(&sl.sc, rt, a.Buffers, nil)
	}
	sl.gates = sl.gates[:0]
	for _, gi := range a.Gates {
		sl.gates = append(sl.gates, s.p.Library[gi].Electrical())
	}
	return s.eval.SinkDelaysInto(&sl.sc, rt, a.Buffers, sl.gates)
}

// evalSlots sizes the per-worker-slot scratch for a fan-out over n nets.
func (s *state) evalSlots(n int) []evalSlot {
	if w := min(par.Workers(s.p.Workers), n); len(s.slots) < w {
		s.slots = append(s.slots, make([]evalSlot, w-len(s.slots))...)
	}
	return s.slots
}

// addDemand adjusts p(v) on every tile of a route.
func (s *state) addDemand(rt *rtree.Tree, d float64) {
	for _, t := range rt.Tile {
		s.g.AddDemand(s.g.TileIndex(t), d)
	}
}

// refreshDelays recomputes the per-net maximum sink delay over the worker
// pool (each worker writes only its own net's slot).
//
// An evaluator failure means the net's route or buffer assignment is
// structurally broken, so it is propagated — never swallowed: recording 0
// would make a broken net sort as the *least* critical net in the Stage-3
// ordering. The broken net's delay is set to +Inf first, so that even a
// caller that ignores the error orders such nets deterministically as the
// most critical. All broken nets are reported, joined in net-index order.
func (s *state) refreshDelays() error {
	evs := obs.NewIndexBuffers(s.obs, len(s.routes))
	slots := s.evalSlots(len(s.routes))
	err := par.ForEachWorkerCtx(s.ctx, s.p.Workers, len(s.routes), func(w, i int) error {
		ds, err := s.sinkDelays(&slots[w], s.routes[i], i)
		if err != nil {
			s.delays[i] = math.Inf(1)
			evs.Emit(i, obs.Event{Kind: obs.KindCounter, Scope: "delay.eval_errors", Stage: s.stage, Net: s.c.Nets[i].ID, Value: 1})
			return fmt.Errorf("core: net %d: delay evaluation: %w", s.c.Nets[i].ID, err)
		}
		m := 0.0
		for _, d := range ds {
			if d > m {
				m = d
			}
		}
		s.delays[i] = m
		evs.Emit(i, obs.Event{Kind: obs.KindGauge, Scope: "net.delay_ps", Stage: s.stage, Net: s.c.Nets[i].ID, Value: m * 1e12})
		return nil
	})
	evs.Flush()
	return err
}

// orderByDelay returns net indices sorted by current delay.
func (s *state) orderByDelay(descending bool) []int {
	order := make([]int, len(s.c.Nets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if descending {
			return s.delays[order[a]] > s.delays[order[b]]
		}
		return s.delays[order[a]] < s.delays[order[b]]
	})
	return order
}

// snapshot gathers the Table II statistics for the current state.
func (s *state) snapshot(stage int) StageStats {
	ws := s.g.WireCongestion()
	bs := s.g.BufferDensity()
	st := StageStats{
		Stage:     stage,
		WireMax:   ws.Max,
		WireAvg:   ws.Avg,
		Overflows: ws.Overflow,
		BufMax:    bs.Max,
		BufAvg:    bs.Avg,
		Buffers:   bs.Buffers,
	}
	// The per-net accounting (dominated by the Elmore evaluation) fans out
	// over the worker pool into per-net slots — each net's sink delays into
	// its own span of one flat buffer; the floating-point delay reduction
	// below runs sequentially in net-index order so the stats are
	// bit-identical for every worker count.
	n := len(s.routes)
	sn := &s.snap
	sn.fail, sn.ok = growBools(sn.fail, n), growBools(sn.ok, n)
	if cap(sn.off) < n+1 {
		sn.off = make([]int, n+1)
	}
	sn.off = sn.off[:n+1]
	wireTiles := 0
	for i, rt := range s.routes {
		sn.off[i+1] = sn.off[i] + len(rt.SinkNode)
		wireTiles += rt.NumEdges()
	}
	if cap(sn.ds) < sn.off[n] {
		sn.ds = make([]float64, sn.off[n])
	}
	sn.ds = sn.ds[:sn.off[n]]
	slots := s.evalSlots(n)
	_ = par.ForEachWorker(s.p.Workers, n, func(w, i int) error {
		rt := s.routes[i]
		if s.hasAsg[i] {
			sn.fail[i] = !s.asg[i].Feasible()
		} else {
			// Before buffering, a net fails whenever its driver would have
			// to drive more than L tile units on its own.
			sn.fail[i] = rt.NumEdges() > s.c.Nets[i].L
		}
		if ds, err := s.sinkDelays(&slots[w], rt, i); err == nil {
			copy(sn.ds[sn.off[i]:sn.off[i+1]], ds)
			sn.ok[i] = true
		}
		return nil
	})
	var dst delay.Stats
	for i := 0; i < n; i++ {
		if sn.fail[i] {
			st.Fails++
		}
		if sn.ok[i] {
			dst.Add(sn.ds[sn.off[i]:sn.off[i+1]])
		}
	}
	st.WirelenMm = float64(wireTiles) * s.c.TileUm / 1000
	st.MaxDelayPs = dst.MaxPs()
	st.AvgDelayPs = dst.AvgPs()
	st.NonFiniteDelays = dst.NonFinite
	return st
}
