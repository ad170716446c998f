package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
)

// span is one traced interval. Spans of one plan or request share Op; a
// layer's self time is its duration minus the part its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's trace origin
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
	open   []int // indices of the open spans, innermost last
	op     int
	heap   uint64 // largest live-heap reading taken at a span boundary
	rt     []metrics.Sample
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), rt: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}}
}

// begin opens a span under the innermost open one.
func (l *spanLog) begin(name string) {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	l.sampleHeap()
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Op: l.op, Name: name, Start: int64(time.Since(l.origin))})
	l.open = append(l.open, len(l.spans)-1)
}

// end closes the innermost open span called name, and any still open
// inside it (a plan that failed mid-stage), and returns its duration.
func (l *spanLog) end(name string) time.Duration {
	now := int64(time.Since(l.origin))
	for n := len(l.open); n > 0; n-- {
		s := &l.spans[l.open[n-1]]
		s.End = now
		l.open = l.open[:n-1]
		if s.Name == name {
			l.sampleHeap()
			return time.Duration(s.End - s.Start)
		}
	}
	panic(fmt.Sprintf("bench: span %q closed but not open", name))
}

// innermost names the innermost open span ("" when none is open).
func (l *spanLog) innermost() string {
	if n := len(l.open); n > 0 {
		return l.spans[l.open[n-1]].Name
	}
	return ""
}

// allocs reads the cumulative heap allocation counters (objects, bytes).
func (l *spanLog) allocs() (objects, bytes uint64) {
	metrics.Read(l.rt)
	return l.rt[0].Value.Uint64(), l.rt[1].Value.Uint64()
}

func (l *spanLog) sampleHeap() {
	metrics.Read(l.rt[2:])
	if h := l.rt[2].Value.Uint64(); h > l.heap {
		l.heap = h
	}
}

// planTracer is the batch workloads' observer (Params.Observer). It feeds
// every event to an obs.Metrics registry and stamps spans at the pipeline
// boundaries the bench can see: the run, each stage, and each rip-up pass
// or MCF phase inside a stage. At stage boundaries it reads the runtime's
// heap-allocation counters, and it attributes the router's per-net search
// counters to the rip-up pass they occur in. The pipeline delivers events
// from one goroutine at a time (see obs.Observer), so it needs no lock.
type planTracer struct {
	reg *obs.Metrics
	log *spanLog
	// Rip-up search work, and per-stage heap allocation (index 1-4).
	ripupPops, ripupRelax float64
	stageObjs, stageBytes [5]uint64
	objs0, bytes0         uint64
}

func newPlanTracer(log *spanLog) *planTracer {
	return &planTracer{reg: obs.NewMetrics(), log: log}
}

// spanName maps a pipeline span event to the bench's span name, or "".
func spanName(e obs.Event) string {
	switch e.Scope {
	case "run", "ripup.pass", "mcf.phase":
		return e.Scope
	case "stage":
		return fmt.Sprintf("stage.%d", e.Stage)
	}
	return ""
}

func (t *planTracer) Observe(e obs.Event) {
	t.reg.Observe(e)
	switch e.Kind {
	case obs.KindSpanBegin:
		if name := spanName(e); name != "" {
			t.log.begin(name)
			if e.Scope == "stage" {
				t.objs0, t.bytes0 = t.log.allocs()
			}
		}
	case obs.KindSpanEnd:
		if name := spanName(e); name != "" {
			t.log.end(name)
			if e.Scope == "stage" && e.Stage >= 1 && e.Stage <= 4 {
				o, b := t.log.allocs()
				t.stageObjs[e.Stage] += o - t.objs0
				t.stageBytes[e.Stage] += b - t.bytes0
			}
		}
	case obs.KindCounter:
		if t.log.innermost() == "ripup.pass" {
			switch e.Scope {
			case "route.pops":
				t.ripupPops += e.Value
			case "route.relaxations":
				t.ripupRelax += e.Value
			}
		}
	}
}

// The registry keys the per-layer metrics read: counters, and span totals
// (seconds) with their counts (the key prefixed by "#").
var (
	regCounters = []string{
		"route.pops.2", "route.relaxations.2", "route.bap.pops.4", "route.bap.relaxations.4",
		"dp.candidates.3", "dp.candidates.4", "dp.pruned.3", "dp.pruned.4", "dp.joins.3", "dp.joins.4",
		"rework.twopaths.4", "ripup.speculative.2", "ripup.conflicts.2",
		"cache.hit", "cache.miss", "cache.coalesced", "cache.evict", "server.rejected",
	}
	regSpans = []string{"run", "stage.1", "stage.2", "stage.3", "stage.4", "net.rework.4", "ripup.pass.2", "mcf.phase.2"}
)

// readRegistry snapshots the registry keys above.
func readRegistry(m *obs.Metrics) map[string]float64 {
	r := map[string]float64{}
	for _, k := range regCounters {
		r[k] = m.Counter(k)
	}
	for _, k := range regSpans {
		s := m.Span(k)
		r[k] = s.Total.Seconds()
		r["#"+k] = float64(s.Count)
	}
	return r
}

// sub returns the per-key difference b - a of two snapshots.
func sub(b, a map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range b {
		d[k] = v - a[k]
	}
	return d
}

// registryLayers derives the per-layer metrics both kinds of workload read
// from the pipeline's registry: d is the registry's change over the traced
// window and plans the number of plans the pipeline computed in it.
func registryLayers(d map[string]float64, plans float64) map[string]float64 {
	per := func(k string) float64 { return ratio(d[k], plans) }
	cand := d["dp.candidates.3"] + d["dp.candidates.4"]
	pruned := d["dp.pruned.3"] + d["dp.pruned.4"]
	return map[string]float64{
		"core.stage1_s":             per("stage.1"),
		"core.stage2_s":             per("stage.2"),
		"core.stage3_s":             per("stage.3"),
		"core.stage4_s":             per("stage.4"),
		"core.rework_s":             per("net.rework.4"),
		"core.rework_twopaths":      per("rework.twopaths.4"),
		"route.ripup_passes":        per("#ripup.pass.2"),
		"route.ripup_pass_s":        per("ripup.pass.2"),
		"route.spec_conflict_ratio": ratio(d["ripup.conflicts.2"], d["ripup.speculative.2"]),
		"route.bap_pops":            per("route.bap.pops.4"),
		"route.bap_relaxations":     per("route.bap.relaxations.4"),
		"bufferdp.candidates":       ratio(cand, plans),
		"bufferdp.pruned":           ratio(pruned, plans),
		"bufferdp.joins":            ratio(d["dp.joins.3"]+d["dp.joins.4"], plans),
		"bufferdp.prune_ratio":      ratio(pruned, cand),
		"mcf.phase_s":               per("mcf.phase.2"),
		"mcf.phases":                per("#mcf.phase.2"),
	}
}

// staged sums the four stage-span totals of a registry difference.
func staged(d map[string]float64) float64 {
	return d["stage.1"] + d["stage.2"] + d["stage.3"] + d["stage.4"]
}

// gcReading is the runtime's cumulative GC CPU, total CPU and GC cycles.
type gcReading struct{ gcCPU, cpu, cycles float64 }

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcReading{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// gcLayers derives the runtime layer's metrics over a window.
func gcLayers(a, b gcReading, heapPeak uint64, plans float64) map[string]float64 {
	return map[string]float64{
		"runtime.gc_cpu_frac":        ratio(b.gcCPU-a.gcCPU, b.cpu-a.cpu),
		"runtime.gc_cycles_per_plan": ratio(b.cycles-a.cycles, plans),
		"runtime.heap_peak_mb":       float64(heapPeak) / 1e6,
	}
}
