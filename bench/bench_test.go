package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the layout of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to its schema and to this
// package's catalog, so the two cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Command) == 0 || bf.Command[0] != "bash" || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", bf.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRe)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the bench (want 2-8, equal)", n, len(workloads))
	}
	wl := map[string]bool{}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		wl[w.Name] = true
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the bench %q, or their whys differ", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalog (want 1-16, equal)", n, len(endToEnd))
	}
	e2e := map[string]bool{}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		e2e[m.Name] = true
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalog %+v", i, m, c)
		}
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if s := bf.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != maxBound {
		t.Errorf("setup_s must come first, in s, lower is better, with the largest bound: %+v", s)
	}

	if n := len(bf.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalog (want 1-128, equal)", n, len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalog %+v", i, m, c)
		}
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
		if c.Layer == "" {
			t.Errorf("per-layer %s names no layer", c.Name)
		}
		if c.Layer != "bench" && (!e2e[c.Moves] || !wl[c.On]) {
			t.Errorf("per-layer %s should move %q on %q: not an end-to-end metric and workload", c.Name, c.Moves, c.On)
		}
	}
}

// runBench runs the command in-process and returns its exit code, output
// lines and standard error.
func runBench(t *testing.T, args ...string) (int, []string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, strings.Split(strings.TrimSpace(out.String()), "\n"), errb.String()
}

// TestSmoke runs every workload briefly on two circuits, untraced and
// traced, and checks that each declared metric is printed with its unit
// and a finite value, and that no operation failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, lines, stderr := runBench(t, "--workload", w.name, "--seconds", "1",
				"--inputs", "apte,hp", "--trace", trace)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, trace, code, stderr)
			}
			declared := endToEnd
			if trace == "1" {
				declared = perLayer
			}
			printed := map[string]string{}
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if len(f) < 4 || f[0] != w.name {
					t.Fatalf("%s: malformed metric line %q", w.name, l)
				}
				v, err := strconv.ParseFloat(f[2], 64)
				if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s has non-finite value %q", w.name, f[1], f[2])
				}
				printed[f[1]] = f[3]
				if f[1] == "error_frac" && v != 0 {
					t.Errorf("%s: error_frac %v", w.name, v)
				}
			}
			for _, m := range declared {
				if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s trace %s: %s printed with unit %q, want %q", w.name, trace, m.Name, unit, m.Unit)
				}
			}
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line: %v", w.name, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 || len(last.Metrics) != len(declared) {
				t.Errorf("%s trace %s: result %+v", w.name, trace, last)
			}
			if trace == "0" {
				for _, m := range declared {
					if last.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end %s is 0", w.name, m.Name)
					}
				}
			}
		}
	}
}

// TestPeakRSSPerWorkload checks that peak_rss_mb covers only the workload
// it is printed for: memory the process touched and freed before the
// workload must not show in it.
func TestPeakRSSPerWorkload(t *testing.T) {
	const mb = 96
	b := make([]byte, mb<<20)
	for i := range b {
		b[i] = 1
	}
	before, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(b) // b is garbage from here on
	code, lines, stderr := runBench(t, "--workload", "coarse-engines", "--seconds", "0.1", "--inputs", "apte")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 3 && f[1] == "peak_rss_mb" {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil || v > before-mb/2 {
				t.Errorf("peak_rss_mb %s after a %.0f MB peak before the workload", f[2], before)
			}
			return
		}
	}
	t.Fatal("peak_rss_mb not printed")
}

// TestCorruptGoldenFails feeds a deliberately corrupted golden fixture and
// checks that the benchmark reports the mismatch and exits non-zero.
func TestCorruptGoldenFails(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"golden_route/apte.json", "golden_backend/mcf/apte.json", "golden_backend/rabidlib/apte.json"} {
		b, err := os.ReadFile(filepath.Join("../testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		if f == "golden_route/apte.json" {
			b = bytes.Replace(b, []byte(`"capacity": `), []byte(`"capacity": 1`), 1)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, lines, stderr := runBench(t, "--workload", "coarse-engines", "--seconds", "0.1",
		"--inputs", "apte", "--goldens", dir)
	if code == 0 {
		t.Fatalf("exit 0 with a corrupted golden; output:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(stderr, "golden fixture") || !strings.Contains(lines[len(lines)-1], `"correct":false`) {
		t.Errorf("mismatch not reported: stderr %q, last line %q", stderr, lines[len(lines)-1])
	}
}

// TestCompareVerdicts checks the three verdicts of bench compare.
func TestCompareVerdicts(t *testing.T) {
	lower := metric{Name: "plan_ms_p50", Better: "lower", Bound: 0.10}
	higher := metric{Name: "plans_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m    metric
		a, b side
		want string
	}{
		{lower, side{100, 99, 101}, side{105, 104, 106}, "ok"},
		{lower, side{100, 99, 101}, side{120, 119, 121}, "worse"},
		{lower, side{100, 99, 101}, side{80, 79, 81}, "ok"},
		{higher, side{10, 9.9, 10.1}, side{8, 7.9, 8.1}, "worse"},
		{lower, side{100, 80, 120}, side{100, 99, 101}, "unresolved"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
