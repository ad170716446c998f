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
	// TargetStage1Avg is the calibration target (0 means
	// DefaultTargetStage1Avg).
	TargetStage1Avg float64
	// Tech is the technology used for Elmore delay reporting.
	Tech tech.Tech
	// SkipStage4 disables post-processing (for stage ablations).
	SkipStage4 bool
	// DisableDemandTerm zeroes the probabilistic p(v) term of Eq. (2)
	// (for ablations of the Stage-3 cost).
	DisableDemandTerm bool
	// MCFPhases and MCFEpsilon expose the multicommodity-flow router's
	// knobs (see mcf.Options): the number of routing phases and the
	// exponential length step. Zero means the engine default
	// (mcf.DefaultPhases, mcf.DefaultEpsilon). Both are result-affecting and flow into the
	// content-addressed cache key; only the "mcf" backend reads them, and
	// backend.Normalize refuses non-zero values on any other engine.
	MCFPhases  int
	MCFEpsilon float64
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
	// order-independent per-net work (Stage-1 Steiner construction, and the
	// delay evaluation that ends every stage, whose sink delays both order
	// the next stage and feed the stage's snapshot). 0 (the default) means
	// GOMAXPROCS. Results are bit-identical for every value — per-net
	// workers write only to their own net's slot, and shared tile-graph
	// mutation stays sequential (see DESIGN.md, "Parallel execution
	// model").
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

// Validate checks the engine-independent rules on p: every numeric field
// in its domain, at least one rip-up pass, mcf knobs in range (0 means the
// engine default) and a well-formed buffer library.
// It is the one owner of these rules: every pipeline checks them before it
// starts, and backend.Normalize before a request is keyed, so a bad value
// is a client error rather than a failed run. Each domain check is written
// so that NaN fails it.
func (p Params) Validate() error {
	if !(p.Alpha >= 0 && p.Alpha <= 1) {
		return fmt.Errorf("core: Alpha %g outside [0,1]", p.Alpha)
	}
	if a := p.RouteOpt.Alpha; !(a >= 0 && a <= 1) {
		return fmt.Errorf("core: RouteOpt.Alpha %g outside [0,1]", a)
	}
	if w := p.RouteOpt.LengthWeight; !(w >= 0) || math.IsInf(w, 1) {
		return fmt.Errorf("core: RouteOpt.LengthWeight %g is not finite and non-negative", w)
	}
	// Every edge and site cost of the Stage-4 search is then positive, as
	// its bounds assume (DESIGN.md "Bounded Stage-4 search").
	if op := p.RouteOpt.OverflowPenalty; !(op > 0) || math.IsInf(op, 1) {
		return fmt.Errorf("core: RouteOpt.OverflowPenalty %g is not finite and positive", op)
	}
	if p.Capacity < 0 {
		return fmt.Errorf("core: Capacity %d < 0", p.Capacity)
	}
	if t := p.TargetStage1Avg; !(t >= 0) || math.IsInf(t, 1) {
		return fmt.Errorf("core: TargetStage1Avg %g is not finite and non-negative", t)
	}
	if p.MaxRipupPasses < 1 {
		return fmt.Errorf("core: MaxRipupPasses %d < 1", p.MaxRipupPasses)
	}
	if p.MCFPhases < 0 {
		return fmt.Errorf("core: MCFPhases %d < 0", p.MCFPhases)
	}
	if p.MCFEpsilon != 0 && !(p.MCFEpsilon > 0 && p.MCFEpsilon < 1) {
		return fmt.Errorf("core: MCFEpsilon %g outside (0,1)", p.MCFEpsilon)
	}
	for i, g := range p.Library {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("core: library gate %d: %w", i, err)
		}
	}
	return nil
}

// DefaultTargetStage1Avg is the Stage-1 average congestion a zero
// Capacity is calibrated to when Params.TargetStage1Avg is 0.
const DefaultTargetStage1Avg = 0.25

// DefaultParams returns the paper's parameter set.
func DefaultParams() Params {
	return Params{
		Alpha:           0.4,
		RouteOpt:        route.DefaultOptions(),
		MaxRipupPasses:  3,
		TargetStage1Avg: DefaultTargetStage1Avg,
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
	// ws is the run's router workspace: it serves the routing of Stages 2
	// and 4 and is reused across nets and passes and, through
	// Params.WorkspacePool, across runs.
	ws *route.Workspace

	// Stage-3/4 and delay-evaluation scratch, reused across nets and
	// stages so that their steady state allocates nothing but results (see
	// DESIGN.md, "Router hot path").
	dp     bufferdp.Scratch
	lib    bufferdp.LibScratch
	libBuf []bufferdp.LibGate // dpLibrary's per-net view of Params.Library
	sites  siteCheck
	paths  rtree.TwoPathSet
	done   []uint64  // reworked two-paths of the current net: sorted (head, tail) tile-index pairs
	walk   []geom.Pt // the ripped two-path, tail to head: the reconnection search's incumbent
	splice splicer
	slots  []evalSlot // per worker slot of Stage 1 and refreshDelays

	// The sink delays of the stage's one evaluation (refreshDelays), which
	// its snapshot reduces: net i's are ds[off[i]:off[i+1]], in net order.
	off []int
	ds  []float64

	// With an observer attached: the per-net event buffers of the
	// parallel sections (Stage 1 and every delay refresh), and the heat
	// fields of the stage snapshots. Both are made once per run.
	netEvs            *obs.IndexBuffers
	wireHeat, bufHeat []float64
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

// evalSlot is one worker slot's memory: the Stage-1 construction's, and
// the delay evaluation's.
type evalSlot struct {
	steiner steiner.Scratch
	NetEval
}

// NetEval is the memory of one net's delay evaluation, reused across nets:
// the Elmore pass's arrays and the chosen gates expanded. The zero value is
// ready to use; one NetEval serves one goroutine at a time. It is how every
// reader of a Result prices a net — the stage snapshots, Result.Report, the
// timing-driven retime and the layer evaluation — so they agree on delays.
type NetEval struct {
	sc    delay.Scratch
	gates []tech.Gate
}

// Delays evaluates the sink delays of route rt under assignment a with the
// gates the DP actually chose: the single planning buffer when a.Gates is
// nil, or lib[g] for each buffer's library gate g (lib is the run's
// Params.Library). The result lives in the scratch until its next use.
func (ne *NetEval) Delays(e delay.Evaluator, lib []tech.LibGate, rt *rtree.Tree, a bufferdp.Assignment) ([]float64, error) {
	if a.Gates == nil {
		return e.SinkDelaysInto(&ne.sc, rt, a.Buffers, nil)
	}
	ne.gates = ne.gates[:0]
	for _, gi := range a.Gates {
		ne.gates = append(ne.gates, lib[gi].Electrical())
	}
	return e.SinkDelaysInto(&ne.sc, rt, a.Buffers, ne.gates)
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

// RunMCFContext executes the multicommodity-flow buffered-routing pipeline
// (the "mcf" planning backend): Stage 1 builds the initial Steiner routes
// and the calibrated tile graph exactly as the rabid pipeline does; Stage 2
// replaces rip-up-and-reroute with the full fractional MCF relaxation —
// site-aware edge lengths pricing buffer scarcity into the length system,
// approximate dual updates, deterministic seeded rounding, greedy repair;
// Stage 3 runs the length-based buffer DP under the Eq. (2) site cost. The
// paper's Stage-4 post-processing is rabid-specific (it splices two-paths
// against the incremental router) and is not part of this engine. It has
// the same checkpoint contract as RunContext (stage boundaries, MCF phase
// and per-net boundaries, per-net DP assignments, worker-pool dispatch).
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
	if err := p.Validate(); err != nil {
		return nil, err
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

// execute drives a pipeline to completion: the run span, per-stage timing,
// the one delay evaluation that ends every stage, snapshot accounting, and
// result assembly. skipLast drops the final stage (Params.SkipStage4 for
// the rabid pipeline's ablations).
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
		if err := st.refreshDelays(); err != nil {
			return fmt.Errorf("core: stage %d: %w", stage, err)
		}
		s := st.snapshot(stage)
		s.CPU = time.Since(t0) //rabid:allow wallclock stage CPU is the tables' cpu(s) column, printed untapped
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
	// The heat fields reuse run-owned buffers across stages; observers
	// must not retain Event.Vals (see obs.Event).
	s.wireHeat = viz.WireHeatInto(s.g, s.wireHeat)
	s.bufHeat = viz.BufferHeatInto(s.g, s.bufHeat)
	s.obs.Observe(obs.Event{Kind: obs.KindHeat, Scope: "heat.wire", Stage: st, Net: -1, Vals: s.wireHeat})
	s.obs.Observe(obs.Event{Kind: obs.KindHeat, Scope: "heat.buffer", Stage: st, Net: -1, Vals: s.bufHeat})
	s.obs.Observe(obs.Event{Kind: obs.KindSpanEnd, Scope: "stage", Stage: st, Net: -1, Dur: ss.CPU})
}

// stage1 builds the initial Steiner routes and the calibrated tile graph.
// Route construction is pure per-net work and fans out over the worker
// pool, each slot on its own steiner.Scratch; the output trees are fresh,
// so no slot memory reaches a result. The capacity calibration and usage
// registration that follow mutate the shared graph and stay sequential.
func (s *state) stage1() error {
	bufs := s.netEvents(len(s.c.Nets))
	slots := s.evalSlots(len(s.c.Nets))
	if err := par.ForEachWorkerCtx(s.ctx, s.p.Workers, len(s.c.Nets), func(w, i int) error {
		t0 := bufs.Now()
		rt, err := slots[w].steiner.InitialRoute(s.c.Nets[i], s.p.Alpha)
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
			target = DefaultTargetStage1Avg
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
	return nil
}

// stage2 reduces wire congestion by whole-net rip-up and reroute.
func (s *state) stage2() error {
	order := s.orderByDelay(false) // smallest delay first
	opt := s.p.RouteOpt
	opt.Obs, opt.Stage = s.obs, 2
	_, err := route.ReduceCongestionCtx(s.ctx, s.g, s.c.Nets, s.routes, order, s.p.MaxRipupPasses, opt, s.ws)
	return err
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
	return nil
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
	return nil
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
		s.libBuf = dpLibrary(s.libBuf, s.p.Library, s.p.Tech.Buffer, s.c.Nets[i].L)
		lib = s.libBuf
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
			a, err = s.lib.AssignLib(rt, s.c.Nets[i].L, lib, q, dpp)
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
	return nil
}

// reworkNet reroutes net i one two-path at a time. The net's wires are
// removed once, before its first two-path, and registered once, after its
// last or on the way out of an error: every search runs with the whole net
// removed, and nothing else writes the graph's wire usage meanwhile.
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
	route.RemoveUsage(s.g, s.routes[i])
	defer func() { route.AddUsage(s.g, s.routes[i]) }()
	// The two-paths are enumerated once per tree and walked with cursor k
	// (k < 0: not yet enumerated). The pick order follows the tree's node
	// numbering, so only a splice calls for a new list; on a kept tree the
	// next pick is the first undone two-path after k, since every one
	// before it is done. A two-path is named by its end tiles, packed as
	// (head, tail) tile indices into a sorted set. own caches keepsOwn for
	// the current tree: 0 not yet worked out, 1 keeps, -1 renumbers.
	s.done = s.done[:0]
	k, own := -1, 0
	for {
		rt := s.routes[i]
		if k < 0 {
			rt.TwoPathsInto(&s.paths)
			k, own = 0, 0
		}
		var pick []int
		var key uint64
		var at int
		for ; k < s.paths.Len(); k++ {
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
		k++
		s.done = slices.Insert(s.done, at, key)
		head := rt.Tile[pick[0]]
		tail := rt.Tile[pick[len(pick)-1]]
		nPaths++

		// Blocked tiles are the tree tiles that must not be crossed:
		// everything except the ripped interior and the endpoints
		// themselves. The mask comes from the workspace and is cleared
		// entry-by-entry right after the search, keeping each two-path
		// O(tree) instead of O(grid).
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
			continue
		}
		if ripped(rt, pick, newPath) {
			if own == 0 {
				own = -1
				if s.splice.keepsOwn(rt) {
					own = 1
				}
			}
			if own > 0 {
				// The search kept the ripped two-path, and the splice would
				// rebuild the tree node for node: keep it.
				continue
			}
		}
		// The spliced tree is built into a recycled carcass, and the old
		// one — referenced from nowhere else once replaced — feeds the next.
		nt := s.ws.TakeTree() //rabid:allow allocfree fresh tree only when the recycle pool is empty; each splice recycles the tree it replaces
		if err := s.splice.splice(rt, pick, newPath, nt); err != nil {
			s.ws.Recycle(nt)
			return err
		}
		s.routes[i] = nt
		s.ws.Recycle(rt)
		k = -1
	}
}

// ripped reports whether path, head..tail, is the two-path pick of rt
// itself.
func ripped(rt *rtree.Tree, pick []int, path []geom.Pt) bool {
	if len(path) != len(pick) {
		return false
	}
	for k, v := range pick {
		if path[k] != rt.Tile[v] {
			return false
		}
	}
	return true
}

// dpLibrary converts the planning library into the DP's per-net view for a
// net with base length constraint L, written over buf's storage: each
// gate's length constraint is L scaled by its drive strength relative to
// the single planning buffer, and its site cost is scaled by its area.
func dpLibrary(buf []bufferdp.LibGate, lib []tech.LibGate, base tech.Gate, L int) []bufferdp.LibGate {
	out := slices.Grow(buf[:0], len(lib))[:len(lib)]
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
// DP actually chose (see NetEval.Delays); a net without an assignment yet
// is unbuffered. The result lives in the slot's scratch until its next use.
func (s *state) sinkDelays(sl *evalSlot, rt *rtree.Tree, i int) ([]float64, error) {
	var a bufferdp.Assignment
	if s.hasAsg[i] {
		a = s.asg[i]
	}
	return sl.Delays(s.eval, s.p.Library, rt, a)
}

// netEvents returns the run's per-net event buffers, emptied for a
// parallel section over n nets, or nil when no observer is attached. The
// buffers are made on first use and serve every later section, so a
// section that failed before its flush leaves nothing behind.
func (s *state) netEvents(n int) *obs.IndexBuffers {
	if s.netEvs == nil {
		s.netEvs = obs.NewIndexBuffers(s.obs, n)
	}
	s.netEvs.Reset(n)
	return s.netEvs
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

// refreshDelays evaluates every net's sink delays once, at the end of each
// stage, over the worker pool: net i's land in its own span
// ds[off[i]:off[i+1]] of the run's flat buffer, which the stage's snapshot
// reduces, and their maximum in delays[i], which orders the next stage.
// Each worker writes only its own net's slots.
//
// An evaluator failure means the net's route or buffer assignment is
// structurally broken, so it is propagated — never swallowed: recording 0
// would make a broken net sort as the *least* critical net in the Stage-3
// ordering. The broken net's delay is set to +Inf first, so that even a
// caller that ignores the error orders such nets deterministically as the
// most critical. All broken nets are reported, joined in net-index order.
func (s *state) refreshDelays() error {
	n := len(s.routes)
	s.off = slices.Grow(s.off[:0], n+1)[:n+1]
	for i, rt := range s.routes {
		s.off[i+1] = s.off[i] + len(rt.SinkNode)
	}
	s.ds = slices.Grow(s.ds[:0], s.off[n])[:s.off[n]]
	evs := s.netEvents(n)
	slots := s.evalSlots(n)
	err := par.ForEachWorkerCtx(s.ctx, s.p.Workers, n, func(w, i int) error {
		ds, err := s.sinkDelays(&slots[w], s.routes[i], i)
		if err != nil {
			s.delays[i] = math.Inf(1)
			evs.Emit(i, obs.Event{Kind: obs.KindCounter, Scope: "delay.eval_errors", Stage: s.stage, Net: s.c.Nets[i].ID, Value: 1})
			return fmt.Errorf("core: net %d: delay evaluation: %w", s.c.Nets[i].ID, err)
		}
		copy(s.ds[s.off[i]:s.off[i+1]], ds)
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

// snapshot gathers the Table II statistics for the current state. Its
// delay columns reduce the sink delays of the stage's refreshDelays, which
// ran on the same routes and buffers, sequentially in net-index order so
// the stats are bit-identical for every worker count.
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
	wireTiles := 0
	var dst delay.Stats
	for i, rt := range s.routes {
		wireTiles += rt.NumEdges()
		if s.hasAsg[i] {
			if !s.asg[i].Feasible() {
				st.Fails++
			}
		} else if rt.NumEdges() > s.c.Nets[i].L {
			// Before buffering, a net fails whenever its driver would have
			// to drive more than L tile units on its own.
			st.Fails++
		}
		dst.Add(s.ds[s.off[i]:s.off[i+1]])
	}
	st.WirelenMm = float64(wireTiles) * s.c.TileUm / 1000
	st.MaxDelayPs = dst.MaxPs()
	st.AvgDelayPs = dst.AvgPs()
	st.NonFiniteDelays = dst.NonFinite
	return st
}
