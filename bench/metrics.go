package main

import (
	"math"
	"sort"
)

// metric describes one reported metric. End-to-end metrics carry the
// regression bound fixed in BENCHMARK.json; per-layer metrics name the
// module they measure and the end-to-end metric and workload they should
// move. BENCHMARK.json must list exactly these metrics (TestBenchmarkJSON).
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the median
	Layer  string  // per-layer only: the module measured
	Moves  string  // per-layer only: the end-to-end metric it should move; "" for the bench's own
	On     string  // per-layer only: the workload on which it should move it
}

// endToEnd are the metrics a planner caller sees. Every workload reports
// all of them (trace 0). In serve-http the plans are the miss phase's
// requests, each of which computes one. Latency classes: in the batch
// workloads "light" is the input circuit with the fewest nets and "heavy"
// the one with the most; in serve-http "light" is a cache hit and "heavy" a
// miss on the suite circuit with the most nets. The timings are taken over
// each input's fastest repeat, and their bounds are still wide, because the
// machine's speed drifts by up to a factor of 1.7 from one minute to the
// next (see README.md); setup_s keeps the largest.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "plans_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "plan_ms_p50", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "light_ms_p50", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "heavy_ms_p50", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "allocs_per_plan", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "alloc_mb_per_plan", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "qor_fails", Unit: "count", Better: "lower", Bound: 0.01},
	{Name: "qor_wirelen_mm", Unit: "mm", Better: "lower", Bound: 0.01},
}

// perLayer are the traced run's metrics (trace 1). Per-plan units divide by
// the plans the pipeline computed: every plan in the batch workloads, cache
// miss phase's requests in serve-http. A layer a workload never reaches reports 0.
var perLayer = []metric{
	{Name: "core.stage1_s", Unit: "s/plan", Better: "lower", Layer: "core", Moves: "plans_per_s", On: "coarse-engines"},
	{Name: "core.stage2_s", Unit: "s/plan", Better: "lower", Layer: "core", Moves: "plans_per_s", On: "coarse-engines"},
	{Name: "core.stage3_s", Unit: "s/plan", Better: "lower", Layer: "core", Moves: "plans_per_s", On: "coarse-engines"},
	{Name: "core.stage4_s", Unit: "s/plan", Better: "lower", Layer: "core", Moves: "plans_per_s", On: "paper-rabid"},
	{Name: "core.unstaged_s", Unit: "s/plan", Better: "lower", Layer: "core", Moves: "plans_per_s", On: "coarse-engines"},
	{Name: "core.rework_s", Unit: "s/plan", Better: "lower", Layer: "core", Moves: "heavy_ms_p50", On: "paper-rabid"},
	{Name: "core.rework_twopaths", Unit: "count/plan", Better: "lower", Layer: "core", Moves: "heavy_ms_p50", On: "paper-rabid"},
	{Name: "core.stage1_allocs", Unit: "count/plan", Better: "lower", Layer: "core", Moves: "allocs_per_plan", On: "coarse-engines"},
	{Name: "core.stage2_allocs", Unit: "count/plan", Better: "lower", Layer: "core", Moves: "allocs_per_plan", On: "coarse-engines"},
	{Name: "core.stage3_allocs", Unit: "count/plan", Better: "lower", Layer: "core", Moves: "allocs_per_plan", On: "coarse-engines"},
	{Name: "core.stage4_allocs", Unit: "count/plan", Better: "lower", Layer: "core", Moves: "allocs_per_plan", On: "paper-rabid"},
	{Name: "core.stage1_alloc_mb", Unit: "MB/plan", Better: "lower", Layer: "core", Moves: "alloc_mb_per_plan", On: "coarse-engines"},
	{Name: "core.stage2_alloc_mb", Unit: "MB/plan", Better: "lower", Layer: "core", Moves: "alloc_mb_per_plan", On: "coarse-engines"},
	{Name: "core.stage3_alloc_mb", Unit: "MB/plan", Better: "lower", Layer: "core", Moves: "alloc_mb_per_plan", On: "coarse-engines"},
	{Name: "core.stage4_alloc_mb", Unit: "MB/plan", Better: "lower", Layer: "core", Moves: "alloc_mb_per_plan", On: "paper-rabid"},
	{Name: "route.ripup_pops", Unit: "count/plan", Better: "lower", Layer: "route", Moves: "plans_per_s", On: "paper-rabid"},
	{Name: "route.ripup_relaxations", Unit: "count/plan", Better: "lower", Layer: "route", Moves: "plans_per_s", On: "paper-rabid"},
	{Name: "route.ripup_passes", Unit: "count/plan", Better: "lower", Layer: "route", Moves: "plans_per_s", On: "paper-rabid"},
	{Name: "route.ripup_pass_s", Unit: "s/plan", Better: "lower", Layer: "route", Moves: "plans_per_s", On: "paper-rabid"},
	{Name: "route.spec_conflict_ratio", Unit: "ratio", Better: "lower", Layer: "route", Moves: "plans_per_s", On: "coarse-engines"},
	{Name: "route.bap_pops", Unit: "count/plan", Better: "lower", Layer: "route", Moves: "plans_per_s", On: "paper-rabid"},
	{Name: "route.bap_relaxations", Unit: "count/plan", Better: "lower", Layer: "route", Moves: "plans_per_s", On: "paper-rabid"},
	{Name: "bufferdp.candidates", Unit: "count/plan", Better: "lower", Layer: "bufferdp", Moves: "plans_per_s", On: "coarse-engines"},
	{Name: "bufferdp.pruned", Unit: "count/plan", Better: "lower", Layer: "bufferdp", Moves: "allocs_per_plan", On: "coarse-engines"},
	{Name: "bufferdp.joins", Unit: "count/plan", Better: "lower", Layer: "bufferdp", Moves: "plans_per_s", On: "coarse-engines"},
	{Name: "bufferdp.prune_ratio", Unit: "ratio", Better: "higher", Layer: "bufferdp", Moves: "allocs_per_plan", On: "paper-rabid"},
	{Name: "mcf.phase_s", Unit: "s/plan", Better: "lower", Layer: "mcf", Moves: "plans_per_s", On: "coarse-engines"},
	{Name: "mcf.phases", Unit: "count/plan", Better: "lower", Layer: "mcf", Moves: "plans_per_s", On: "coarse-engines"},
	{Name: "backend.rabid_ms_p50", Unit: "ms/plan", Better: "lower", Layer: "backend", Moves: "plan_ms_p50", On: "coarse-engines"},
	{Name: "backend.rabid-lib_ms_p50", Unit: "ms/plan", Better: "lower", Layer: "backend", Moves: "plan_ms_p50", On: "coarse-engines"},
	{Name: "backend.mcf_ms_p50", Unit: "ms/plan", Better: "lower", Layer: "backend", Moves: "plan_ms_p50", On: "coarse-engines"},
	{Name: "netlist.parse_ms_p50", Unit: "ms", Better: "lower", Layer: "netlist", Moves: "light_ms_p50", On: "serve-http"},
	{Name: "cache.key_ms_p50", Unit: "ms", Better: "lower", Layer: "cache", Moves: "light_ms_p50", On: "serve-http"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Layer: "cache", Moves: "light_ms_p50", On: "serve-http"},
	{Name: "cache.coalesced", Unit: "count/request", Better: "higher", Layer: "cache", Moves: "heavy_ms_p50", On: "serve-http"},
	{Name: "cache.evict", Unit: "count/request", Better: "lower", Layer: "cache", Moves: "heavy_ms_p50", On: "serve-http"},
	{Name: "server.plan_ms_p50", Unit: "ms/request", Better: "lower", Layer: "server", Moves: "light_ms_p50", On: "serve-http"},
	{Name: "http.client_overhead_ms", Unit: "ms/request", Better: "lower", Layer: "server", Moves: "light_ms_p50", On: "serve-http"},
	{Name: "server.serialize_ms_p50", Unit: "ms/plan", Better: "lower", Layer: "server", Moves: "heavy_ms_p50", On: "serve-http"},
	{Name: "server.rejected", Unit: "count/request", Better: "lower", Layer: "server", Moves: "plans_per_s", On: "serve-http"},
	{Name: "server.resp_kb_p50", Unit: "KB/request", Better: "lower", Layer: "server", Moves: "light_ms_p50", On: "serve-http"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Layer: "runtime", Moves: "plans_per_s", On: "coarse-engines"},
	{Name: "runtime.gc_cycles_per_plan", Unit: "count/plan", Better: "lower", Layer: "runtime", Moves: "plans_per_s", On: "coarse-engines"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "peak_rss_mb", On: "paper-rabid"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Layer: "bench"},
	{Name: "trace.accounted_frac", Unit: "ratio", Better: "higher", Layer: "bench"},
}

// value is one measured metric. Q1 and Q3 are the quartiles of the metric
// computed separately over each sub-window of the run (a batch pass or a
// serve time slice); N is the number of samples behind Value.
type value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowed builds a value from f applied to all windows (Value) and to each
// window on its own (the quartiles), skipping windows f cannot summarize
// (NaN: no sample of the kind it needs).
func windowed(name, unit string, ws []window, n int, f func([]window) float64) value {
	var per []float64
	for i := range ws {
		if v := f(ws[i : i+1]); !math.IsNaN(v) {
			per = append(per, v)
		}
	}
	return value{Name: name, Value: f(ws), Unit: unit, Q1: quantile(per, 0.25), Q3: quantile(per, 0.75), N: n}
}

// fixed builds a value measured once per run.
func fixed(name, unit string, v float64, n int) value {
	return value{Name: name, Value: v, Unit: unit, Q1: v, Q3: v, N: n}
}
