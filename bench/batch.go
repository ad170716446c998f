package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/netlist"
)

// coarseGrids are the fast tilings that the repository's golden fixtures
// and BenchmarkRunSuite use.
var coarseGrids = map[string][2]int{
	"apte": {10, 11}, "xerox": {10, 10}, "hp": {10, 10},
	"ami33": {11, 10}, "ami49": {10, 10}, "playout": {11, 10},
	"ac3": {10, 10}, "xc5": {10, 10}, "hc7": {10, 10}, "a9c3": {10, 10},
}

// goldenBackendCircuits are the circuits testdata/golden_backend pins for
// the rabid+lib and mcf engines (testdata/golden_route pins every circuit
// for rabid).
var goldenBackendCircuits = map[string]bool{"apte": true, "ami49": true, "playout": true}

// Latency classes of a sample (see endToEnd), as bits: with one input
// circuit it is both the light and the heavy one.
const (
	classLight = 1 << iota
	classHeavy
)

// sample is one timed operation: a plan, or a request in serve-http.
type sample struct {
	// input indexes the batch input planned, or the pre-warmed plan a serve
	// request re-requests or renames; repeats of one input do the same work.
	input    int
	class    int
	engine   string
	ms       float64
	reportMs float64 // Result.Report plus its JSON encoding
}

// window is one sub-window of a timed run: a batch pass over every input,
// or a serve time slice.
type window struct {
	samples        []sample
	mallocs, bytes uint64
}

// batchInput is one planning input: a circuit under one engine.
type batchInput struct {
	circuit string
	engine  string
	c       *netlist.Circuit
	p       core.Params
	key     string // content address; repeats must reproduce its first digest
	class   int
	golden  string // fixture path, "" when the input has none
	gates   bool   // the fixture is a backend fixture with gate choices
	final   core.StageStats
}

// batchSpec distinguishes the two batch workloads.
type batchSpec struct {
	coarse  bool // coarse tilings and golden checks; paper tilings otherwise
	engines []string
	workers int
}

// batch runs one batch workload: a single client planning every input once
// per pass, in a seed-shuffled order, counting only whole passes.
type batch struct {
	spec    batchSpec
	cfg     config
	inputs  []*batchInput
	digests map[string]digest
	rng     *rand.Rand
	ops     *opCount
	parseMs []float64
	keyMs   []float64
}

// build generates the inputs from the suite specs, encodes each circuit as
// JSON and parses it back (the form a flow step hands the planner), and
// derives each input's content address.
func (b *batch) build() error {
	var ins []*batchInput
	for _, name := range b.cfg.inputs {
		var opt floorplan.Options
		if b.spec.coarse {
			g := coarseGrids[name]
			opt = floorplan.Options{GridW: g[0], GridH: g[1]}
		}
		c0, err := exp.Generate(name, opt)
		if err != nil {
			return err
		}
		js, err := json.Marshal(c0)
		if err != nil {
			return err
		}
		t0 := time.Now()
		c, err := netlist.ReadJSONLimit(bytes.NewReader(js), 0)
		if err != nil {
			return err
		}
		b.parseMs = append(b.parseMs, msSince(t0))
		for _, engine := range b.spec.engines {
			p := exp.ParamsFor(name)
			p.Backend = engine
			p.Workers = b.spec.workers
			t0 := time.Now()
			np, err := backend.Normalize(p)
			if err != nil {
				return err
			}
			key, err := cache.PlanKey(c, np)
			if err != nil {
				return err
			}
			b.keyMs = append(b.keyMs, msSince(t0))
			in := &batchInput{circuit: name, engine: engine, c: c, p: p, key: key}
			if b.spec.coarse {
				switch {
				case engine == backend.NameRabid:
					in.golden = filepath.Join(b.cfg.goldens, "golden_route", name+".json")
				case goldenBackendCircuits[name]:
					dir := strings.ReplaceAll(engine, "+", "")
					in.golden = filepath.Join(b.cfg.goldens, "golden_backend", dir, name+".json")
					in.gates = true
				}
			}
			ins = append(ins, in)
		}
	}
	light, heavy := ins[0].c, ins[0].c
	for _, in := range ins {
		if len(in.c.Nets) < len(light.Nets) {
			light = in.c
		}
		if len(in.c.Nets) > len(heavy.Nets) {
			heavy = in.c
		}
	}
	for _, in := range ins {
		if in.c == light {
			in.class |= classLight
		}
		if in.c == heavy {
			in.class |= classHeavy
		}
	}
	b.inputs = ins
	return nil
}

// plan runs one input and checks its output. With tr set the run is traced
// under a "plan" span.
func (b *batch) plan(in *batchInput, tr *planTracer) (sample, error) {
	p := in.p
	if tr != nil { // a nil *planTracer must not become a non-nil Observer
		p.Observer = tr
		tr.log.op++
		tr.log.begin("plan")
	}
	t0 := time.Now()
	res, err := backend.Plan(context.Background(), in.c, p)
	lat := msSince(t0)
	if tr != nil {
		tr.log.end("plan")
	}
	s := sample{class: in.class, engine: in.engine, ms: lat}
	if err != nil {
		return s, err
	}
	t0 = time.Now()
	rep, body, err := reportBytes(res)
	s.reportMs = msSince(t0)
	if err != nil {
		return s, err
	}
	if err := checkReport(rep, len(in.c.Nets), in.c.TotalBufferSites()); err != nil {
		return s, err
	}
	if err := checkOverflow(rep.Stages); err != nil {
		return s, err
	}
	d := sha256.Sum256(body)
	first, seen := b.digests[in.key]
	if !seen {
		b.digests[in.key] = d
		in.final = res.Stages[len(res.Stages)-1]
		if in.golden != "" {
			return s, checkGolden(res, in.golden, in.gates)
		}
		return s, nil
	}
	if d != first {
		return s, fmt.Errorf("report differs from the first run of this input")
	}
	return s, nil
}

// pass plans every input once in a seed-shuffled order.
func (b *batch) pass(tr *planTracer) window {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var w window
	for _, i := range b.rng.Perm(len(b.inputs)) {
		in := b.inputs[i]
		s, err := b.plan(in, tr)
		s.input = i
		if b.ops.record(err, "%s/%s", in.engine, in.circuit) {
			w.samples = append(w.samples, s)
		}
	}
	runtime.ReadMemStats(&m1)
	w.mallocs, w.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return w
}

// passes runs whole passes until d has elapsed.
func (b *batch) passes(d time.Duration, tr *planTracer) []window {
	var ws []window
	for start := time.Now(); len(ws) == 0 || time.Since(start) < d; {
		ws = append(ws, b.pass(tr))
	}
	return ws
}

// runBatch measures one batch workload.
func runBatch(cfg config, spec batchSpec) (*result, error) {
	b := &batch{spec: spec, cfg: cfg, digests: map[string]digest{},
		rng: rand.New(rand.NewSource(cfg.seed)), ops: &opCount{}}
	// Set-up: build the inputs setupRounds times, then one warm-up pass,
	// which also runs the golden comparisons.
	var builds []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if err := b.build(); err != nil {
			return nil, fmt.Errorf("build inputs: %w", err)
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	b.pass(nil)
	warm := time.Since(t0).Seconds()

	res := &result{}
	d := cfg.duration()
	if !cfg.trace {
		ws := b.passes(d, nil)
		var fails, wl, overflows float64
		for _, in := range b.inputs {
			fails += float64(in.final.Fails)
			wl += in.final.WirelenMm
			overflows += float64(in.final.Overflows)
		}
		var err error
		if res.Metrics, err = endToEndValues(ws, ws, setupValue(builds, warm), fails, wl, len(b.inputs)); err != nil {
			return nil, err
		}
		res.Extra = []value{fixed("qor_overflows", "count", overflows, len(b.inputs))}
	} else {
		// Half the time untraced and half traced: the difference in
		// throughput is what tracing costs.
		plain := b.passes(d/2, nil)
		log := newSpanLog()
		tr := newPlanTracer(log)
		gc0 := readGC()
		traced := b.passes(d/2, tr)
		layers := b.layers(traced, tr, readRegistry(tr.reg), gcLayers(gc0, readGC(), log.heap, float64(planCount(traced))))
		layers["trace.overhead_frac"] = 1 - throughput(traced)/throughput(plain)
		res.Metrics = layerValues(layers, planCount(traced))
		res.spans = log
	}
	res.Attempted, res.Failed, res.Errors = b.ops.attempted, b.ops.failed, b.ops.errors
	return res, nil
}

// layers derives the per-layer metrics of a traced batch window.
func (b *batch) layers(ws []window, tr *planTracer, d, gc map[string]float64) map[string]float64 {
	plans := float64(planCount(ws))
	m := registryLayers(d, plans)
	for k, v := range gc {
		m[k] = v
	}
	var wall float64
	var reportMs []float64
	byEngine := map[string][]float64{}
	for _, w := range ws {
		for _, s := range w.samples {
			wall += s.ms / 1e3
			reportMs = append(reportMs, s.reportMs)
			byEngine[s.engine] = append(byEngine[s.engine], s.ms)
		}
	}
	m["core.unstaged_s"] = ratio(wall-staged(d), plans)
	m["trace.accounted_frac"] = ratio(staged(d), wall)
	for st := 1; st <= 4; st++ {
		m[fmt.Sprintf("core.stage%d_allocs", st)] = ratio(float64(tr.stageObjs[st]), plans)
		m[fmt.Sprintf("core.stage%d_alloc_mb", st)] = ratio(float64(tr.stageBytes[st])/1e6, plans)
	}
	m["route.ripup_pops"] = ratio(tr.ripupPops, plans)
	m["route.ripup_relaxations"] = ratio(tr.ripupRelax, plans)
	for _, e := range backend.Names() {
		m["backend."+strings.ReplaceAll(e, "+", "-")+"_ms_p50"] = orZero(median(byEngine[e]))
	}
	m["netlist.parse_ms_p50"] = median(b.parseMs)
	m["cache.key_ms_p50"] = median(b.keyMs)
	m["server.serialize_ms_p50"] = median(reportMs)
	for _, k := range []string{"cache.hit_ratio", "cache.coalesced", "cache.evict",
		"server.plan_ms_p50", "http.client_overhead_ms", "server.rejected", "server.resp_kb_p50"} {
		m[k] = 0 // no service in a batch workload
	}
	return m
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
