// Command bench is the repository's benchmark of record. It drives the
// planner only through its entry points — backend.Plan, the planning
// service's HTTP handler over loopback, netlist.ReadJSONLimit,
// cache.PlanKey, Result.Report and the Params.Observer hook — and checks
// every output it gets.
//
// Run it through bench/run.sh, from any directory:
//
//	bash bench/run.sh --workload paper-rabid --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload all --out results.json
//	bash bench/run.sh --workload coarse-engines --trace 1 --spans spans.json
//	bash bench/run.sh compare A.json B.json
//
// Each metric prints as "workload metric value unit n=samples"; the last
// line of each workload is one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, with --trace 1 the per-layer ones from a run with the
// bench's observer attached. The exit status is non-zero when any output
// check fails. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/floorplan"
)

// setupRounds is how many times a run sets up its inputs; setup_s reports
// the median.
const setupRounds = 3

// maxErrors bounds the check failures a run keeps for its report.
const maxErrors = 5

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	run  func(config) (*result, error)
}

var workloads = []workload{
	{
		name: "paper-rabid",
		why:  "The ten Table I circuits at the paper's tilings on the default rabid engine, one worker: the paper's own workload, where Stage 4 dominates.",
		run: func(cfg config) (*result, error) {
			return runBatch(cfg, batchSpec{engines: []string{"rabid"}, workers: 1})
		},
	},
	{
		name: "coarse-engines",
		why:  "The ten circuits at the coarse golden tilings under rabid, rabid+lib and mcf, two workers: small plans where Stage 2, the library DP and MCF weigh more.",
		run: func(cfg config) (*result, error) {
			return runBatch(cfg, batchSpec{coarse: true, engines: []string{"rabid", "rabid+lib", "mcf"}, workers: 2})
		},
	},
	{
		name: "serve-http",
		why:  "The HTTP service with one closed-loop client, in two phases: re-requests of cached plans (parse, hash, cache only), then circuits under new names (the whole pipeline).",
		run:  runServe,
	},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	inputs  []string
	goldens string
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// result is one workload run.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Metrics are the declared metrics of the mode, in catalog order; Extra
	// are further workload-specific ones that are printed and stored but
	// not gated.
	Metrics []value `json:"metrics"`
	Extra   []value `json:"extra,omitempty"`
	spans   *spanLog
}

// opCount tallies a run's operations and keeps its first failures.
type opCount struct {
	attempted, failed int
	errors            []string
}

// record counts one operation and reports whether it succeeded.
func (o *opCount) record(err error, format string, args ...any) bool {
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if len(o.errors) < maxErrors {
		o.errors = append(o.errors, fmt.Sprintf(format, args...)+": "+err.Error())
	}
	return false
}

func (o *opCount) merge(p opCount) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, e := range p.errors {
		if len(o.errors) < maxErrors {
			o.errors = append(o.errors, e)
		}
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := compare(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
		return 0
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated workloads, or all")
	seed := fs.Int64("seed", 1, "workload seed: pass and request order, and new circuits")
	seconds := fs.Float64("seconds", 30, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	spans := fs.String("spans", "", "with --trace 1, write the traced spans as JSON to this file")
	out := fs.String("out", "", "write the full results as JSON to this file")
	inputs := fs.String("inputs", "", "comma-separated suite circuits (default: all ten)")
	goldens := fs.String("goldens", defaultGoldens(), "directory holding golden_route and golden_backend")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, goldens: *goldens}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}
	if *spans != "" && !cfg.trace {
		fmt.Fprintln(stderr, "bench: --spans needs --trace 1")
		return 2
	}
	var err error
	if cfg.inputs, err = selectInputs(*inputs); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var results []*result
	allSpans := map[string][]span{}
	ok := true
	for _, w := range ws {
		if err := resetPeakRSS(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.Workload, res.Seed, res.Seconds, res.Trace = w.name, cfg.seed, cfg.seconds, cfg.trace
		res.Metrics, res.Extra = res.finite(res.Metrics), res.finite(res.Extra)
		if !res.correct() {
			ok = false
			for _, e := range res.Errors {
				fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, e)
			}
		}
		if err := printResult(stdout, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		results = append(results, res)
		if res.spans != nil {
			allSpans[w.name] = res.spans.spans
		}
	}
	if *spans != "" {
		if err := writeJSON(*spans, allSpans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

// finite drops the values that could not be computed (no successful
// sample to summarize), recording each as a failed check.
func (r *result) finite(vs []value) []value {
	var out []value
	for _, v := range vs {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || math.IsNaN(v.Q1) || math.IsNaN(v.Q3) {
			r.Errors = append(r.Errors, fmt.Sprintf("metric %s could not be computed", v.Name))
			continue
		}
		out = append(out, v)
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// defaultGoldens is the repository's testdata directory, found from this
// source file so that the command works from any directory.
func defaultGoldens() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "testdata"
	}
	return filepath.Join(filepath.Dir(file), "..", "testdata")
}

func selectInputs(list string) ([]string, error) {
	all := append(append([]string{}, exp.CBLNames...), exp.RandomNames...)
	if list == "" {
		return all, nil
	}
	var out []string
	for _, name := range strings.Split(list, ",") {
		if _, err := floorplan.BySuiteName(name); err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	return out, nil
}

// printResult prints every metric as a line, then the result object.
func printResult(w io.Writer, r *result) error {
	errFrac := ratio(float64(r.Failed), float64(r.Attempted))
	lines := append(append(append([]value{}, r.Metrics...), r.Extra...),
		fixed("error_frac", "ratio", errFrac, r.Attempted))
	for _, v := range lines {
		fmt.Fprintf(w, "%s %s %v %s n=%d\n", r.Workload, v.Name, v.Value, v.Unit, v.N)
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]out{}}
	for _, v := range r.Metrics {
		obj.Metrics[v.Name] = out{v.Value, v.Unit}
	}
	b, err := json.Marshal(obj)
	if err != nil {
		return fmt.Errorf("%s: %w", r.Workload, err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// endToEndValues computes the end-to-end metrics over a run's windows;
// light_ms_p50 is taken over lightWs, which in the batch workloads are the
// same windows. The timings are medians over the inputs of each input's
// fastest latency.
func endToEndValues(ws, lightWs []window, setup value, fails, wirelen float64, inputs int) ([]value, error) {
	n := planCount(ws)
	classN := func(ws []window, class int) int { return len(latencies(ws, class)) }
	lat := func(class int) func([]window) float64 {
		return func(ws []window) float64 { return median(fastest(ws, class)) }
	}
	per := func(f func(w window) float64) func([]window) float64 {
		return func(ws []window) float64 {
			var sum float64
			for _, w := range ws {
				sum += f(w)
			}
			return ratio(sum, float64(planCount(ws)))
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return []value{
		setup,
		windowed("plans_per_s", "1/s", ws, n, throughput),
		windowed("plan_ms_p50", "ms", ws, n, lat(-1)),
		windowed("light_ms_p50", "ms", lightWs, classN(lightWs, classLight), lat(classLight)),
		windowed("heavy_ms_p50", "ms", ws, classN(ws, classHeavy), lat(classHeavy)),
		windowed("allocs_per_plan", "count", ws, n, per(func(w window) float64 { return float64(w.mallocs) })),
		windowed("alloc_mb_per_plan", "MB", ws, n, per(func(w window) float64 { return float64(w.bytes) / 1e6 })),
		fixed("peak_rss_mb", "MB", rss, 1),
		fixed("qor_fails", "count", fails, inputs),
		fixed("qor_wirelen_mm", "mm", wirelen, inputs),
	}, nil
}

// setupValue is setup_s: the median set-up round plus the one warm-up.
func setupValue(rounds []float64, warm float64) value {
	s := make([]float64, len(rounds))
	for i, r := range rounds {
		s[i] = r + warm
	}
	return value{Name: "setup_s", Value: median(s), Unit: "s", Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// setValue replaces the value of the same name.
func setValue(vs []value, v value) {
	for i := range vs {
		if vs[i].Name == v.Name {
			vs[i] = v
		}
	}
}

// layerValues orders per-layer metrics by the catalog. Every declared
// metric must have been computed.
func layerValues(m map[string]float64, n int) []value {
	var out []value
	for _, d := range perLayer {
		v, ok := m[d.Name]
		if !ok {
			panic("bench: per-layer metric " + d.Name + " not computed")
		}
		out = append(out, fixed(d.Name, d.Unit, v, n))
	}
	return out
}

// classQuantile is the q-quantile latency of one class over the run.
func classQuantile(name string, ws []window, class int, q float64) value {
	l := latencies(ws, class)
	return fixed(name, "ms", quantile(l, q), len(l))
}

// latencies returns the latencies of one class, or of all samples for -1.
func latencies(ws []window, class int) []float64 {
	var out []float64
	for _, w := range ws {
		for _, s := range w.samples {
			if class < 0 || s.class&class != 0 {
				out = append(out, s.ms)
			}
		}
	}
	return out
}

func planCount(ws []window) int {
	n := 0
	for _, w := range ws {
		n += len(w.samples)
	}
	return n
}

// fastest returns, in input order, the fastest latency over the windows of
// each input of one class, or of every input for -1. Every repeat of an
// input does the same work, and the host's interference only ever adds
// time, so the fastest repeat is the reading least disturbed by it.
func fastest(ws []window, class int) []float64 {
	by := map[int]float64{}
	for _, w := range ws {
		for _, s := range w.samples {
			if class >= 0 && s.class&class == 0 {
				continue
			}
			if ms, ok := by[s.input]; !ok || s.ms < ms {
				by[s.input] = s.ms
			}
		}
	}
	keys := make([]int, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = by[k]
	}
	return out
}

// throughput is the rate of a closed loop that plans each input once at its
// fastest latency, in operations per second.
func throughput(ws []window) float64 {
	var sum float64
	t := fastest(ws, -1)
	for _, ms := range t {
		sum += ms
	}
	return ratio(float64(len(t)), sum/1e3)
}

// orZero maps the NaN of an empty sample to 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// resetPeakRSS returns freed memory to the system and restarts the
// process's peak resident set from its current one, so that peak_rss_mb
// covers one workload even when a process runs several.
func resetPeakRSS() error {
	if runtime.GOOS != "linux" {
		return errors.New("peak RSS is reset through /proc/self/clear_refs")
	}
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	if runtime.GOOS != "linux" {
		return 0, errors.New("peak RSS is read from /proc/self/status")
	}
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err != nil {
				return 0, err
			}
			return kb / 1e3, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// mergeLogs concatenates span logs, renumbering spans and operations so
// they stay unique.
func mergeLogs(logs []*spanLog) *spanLog {
	out := newSpanLog()
	for _, l := range logs {
		base, opBase := len(out.spans), out.op
		for _, s := range l.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			s.Op += opBase
			out.spans = append(out.spans, s)
		}
		out.op += l.op
		if l.heap > out.heap {
			out.heap = l.heap
		}
	}
	return out
}
