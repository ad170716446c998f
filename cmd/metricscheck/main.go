// Command metricscheck validates a metrics JSON file produced by the
// -metrics flag of cmd/rabid or cmd/tables (obs.Metrics.WriteJSON). It is
// the CI gate of the benchmark-smoke job: the run must have produced one
// completed span per pipeline stage with a positive, finite duration, and
// no exported value may be non-finite (the JSON encoder writes NaN/±Inf
// as null, so a null anywhere is a telemetry bug). -counters names
// counters that must additionally be present — the Stage-2 wavefront
// totals (route.pops.heap, route.relaxations.heap, labeled by the binary
// heap every search pops from), for instance, are emitted even on a
// zero-pass run, so their absence means the counting tap was never
// threaded through.
//
// -quantiles additionally gates the exported histogram quantiles: every
// histogram with at least one sample must carry finite p50/p95/p99 in
// monotone order (p50 <= p95 <= p99) inside [min, max] — the invariants
// obs.Histogram.Quantile guarantees by construction, so a violation means
// the quantile math or its serialization regressed.
//
// Usage:
//
//	metricscheck [-stages 4] [-counters a.1,b.2] [-quantiles] metrics.json
//
// Exits non-zero with a diagnostic on the first violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// span mirrors one obs.SpanStats entry; pointers distinguish a null
// (non-finite or missing) field from a zero one.
type span struct {
	Count   *int64   `json:"count"`
	TotalNs *float64 `json:"total_ns"`
}

// dump mirrors obs.Metrics.WriteJSON. Counter, gauge, and histogram values
// decode as *float64 so the encoder's null (NaN/±Inf) stays detectable.
type dump struct {
	Counters   map[string]*float64  `json:"counters"`
	Gauges     map[string]*float64  `json:"gauges"`
	Histograms map[string]histogram `json:"histograms"`
	Spans      map[string]span      `json:"spans"`
}

type histogram struct {
	Count   *int64     `json:"count"`
	Sum     *float64   `json:"sum"`
	Min     *float64   `json:"min"`
	Max     *float64   `json:"max"`
	P50     *float64   `json:"p50"`
	P95     *float64   `json:"p95"`
	P99     *float64   `json:"p99"`
	Buckets []*float64 `json:"buckets"`
}

func main() {
	stages := flag.Int("stages", 4, "number of pipeline stages that must have completed spans (stage.1..stage.N)")
	counters := flag.String("counters", "", "comma-separated counter keys that must be present (and finite)")
	quantiles := flag.Bool("quantiles", false, "require finite monotone p50/p95/p99 on every non-empty histogram")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-stages N] [-counters a.1,b.2] [-quantiles] metrics.json")
		os.Exit(2)
	}
	var required []string
	if *counters != "" {
		required = strings.Split(*counters, ",")
	}
	if err := check(flag.Arg(0), *stages, required, *quantiles); err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: ok (%d stage spans, %d required counters, all values finite)\n", flag.Arg(0), *stages, len(required))
}

func check(path string, stages int, required []string, quantiles bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d dump
	if err := json.Unmarshal(raw, &d); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for k, v := range d.Counters {
		if v == nil {
			return fmt.Errorf("counter %q is non-finite", k)
		}
	}
	for k, v := range d.Gauges {
		if v == nil {
			return fmt.Errorf("gauge %q is non-finite", k)
		}
	}
	for k, h := range d.Histograms {
		if h.Sum == nil || h.Min == nil || h.Max == nil {
			return fmt.Errorf("histogram %q has a non-finite sum/min/max", k)
		}
		for i, b := range h.Buckets {
			if b == nil {
				return fmt.Errorf("histogram %q bucket %d is non-finite", k, i)
			}
		}
		if quantiles {
			if err := checkQuantiles(k, h); err != nil {
				return err
			}
		}
	}
	for k, s := range d.Spans {
		switch {
		case s.Count == nil || s.TotalNs == nil:
			return fmt.Errorf("span %q has null fields", k)
		case *s.Count < 1:
			return fmt.Errorf("span %q count = %d, want >= 1", k, *s.Count)
		case *s.TotalNs <= 0:
			return fmt.Errorf("span %q total_ns = %g, want > 0", k, *s.TotalNs)
		}
	}
	if s, ok := d.Spans["run"]; !ok {
		return fmt.Errorf("no run span recorded")
	} else if *s.Count < 1 {
		return fmt.Errorf("run span count = %d, want >= 1", *s.Count)
	}
	for i := 1; i <= stages; i++ {
		k := fmt.Sprintf("stage.%d", i)
		if _, ok := d.Spans[k]; !ok {
			return fmt.Errorf("no completed span for %s: stage missing from the run", k)
		}
	}
	for _, k := range required {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		v, ok := d.Counters[k]
		if !ok {
			return fmt.Errorf("required counter %q missing from the run", k)
		}
		if v == nil {
			return fmt.Errorf("required counter %q is non-finite", k)
		}
	}
	return nil
}

// checkQuantiles enforces the -quantiles gate on one histogram: a sampled
// histogram must export finite p50/p95/p99, monotone and inside [min, max].
func checkQuantiles(k string, h histogram) error {
	if h.Count == nil {
		return fmt.Errorf("histogram %q has a null count", k)
	}
	if *h.Count < 1 {
		return nil // empty histograms carry no meaningful quantiles
	}
	qs := []struct {
		name string
		v    *float64
	}{{"p50", h.P50}, {"p95", h.P95}, {"p99", h.P99}}
	for _, q := range qs {
		if q.v == nil {
			return fmt.Errorf("histogram %q %s is missing or non-finite", k, q.name)
		}
	}
	if !(*h.P50 <= *h.P95 && *h.P95 <= *h.P99) {
		return fmt.Errorf("histogram %q quantiles not monotone: p50=%g p95=%g p99=%g", k, *h.P50, *h.P95, *h.P99)
	}
	if *h.P50 < *h.Min || *h.P99 > *h.Max {
		return fmt.Errorf("histogram %q quantiles outside [min, max]: p50=%g p99=%g range [%g, %g]",
			k, *h.P50, *h.P99, *h.Min, *h.Max)
	}
	return nil
}
