package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/route
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkReroute-8         	   19454	     55129 ns/op	       5 B/op	       0 allocs/op
BenchmarkRipupPass-8       	     186	   6877608 ns/op	    2587 B/op	       2 allocs/op
BenchmarkBufferAwarePath-8 	    4155	    305207 ns/op	      1807 pops/op	      5843 relaxations/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/route	5.336s
pkg: repro
BenchmarkRunSuite 	       1	 737029046 ns/op	185101016 B/op	 2833688 allocs/op
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("host fingerprint not captured: %+v", rep)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	// Sorted by (pkg, name): repro before repro/internal/route.
	if rep.Benchmarks[0].Name != "BenchmarkRunSuite" {
		t.Errorf("sort order wrong: first is %s", rep.Benchmarks[0].Name)
	}
	var reroute *Benchmark
	for i := range rep.Benchmarks {
		if rep.Benchmarks[i].Name == "BenchmarkReroute" {
			reroute = &rep.Benchmarks[i]
		}
	}
	if reroute == nil {
		t.Fatal("BenchmarkReroute missing (GOMAXPROCS suffix not stripped?)")
	}
	if reroute.Iters != 19454 || reroute.NsPerOp != 55129 || reroute.BPerOp != 5 || reroute.AllocsOp != 0 {
		t.Errorf("BenchmarkReroute fields: %+v", *reroute)
	}
	for i := range rep.Benchmarks {
		if b := rep.Benchmarks[i]; b.Name == "BenchmarkBufferAwarePath" {
			if b.PopsOp != 1807 || b.RelaxOp != 5843 {
				t.Errorf("custom wavefront metrics not captured: %+v", b)
			}
			return
		}
	}
	t.Error("Stage-4 search benchmark missing from parse")
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("no-benchmark input accepted")
	}
}

func TestParseLineNonBench(t *testing.T) {
	if _, ok := parseLine("BenchmarkBroken-8 notanumber 12 ns/op"); ok {
		t.Error("malformed iteration count accepted")
	}
	if _, ok := parseLine("BenchmarkNoMetrics-8 12"); ok {
		t.Error("line without ns/op accepted")
	}
}

// writeReport serializes a Report to a temp file for compareReports.
func writeReport(t *testing.T, name string, rep Report) string {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareRegressionGate: -maxregress fails a gated benchmark past the
// threshold, spares unmatched and within-threshold ones, and stands down
// entirely when the reports come from different CPUs.
func TestCompareRegressionGate(t *testing.T) {
	cpu := "TestCPU @ 2.0GHz"
	oldPath := writeReport(t, "old.json", Report{CPU: cpu, Benchmarks: []Benchmark{
		{Name: "BenchmarkReroute", Iters: 1, NsPerOp: 1000},
		{Name: "BenchmarkOther", Iters: 1, NsPerOp: 1000},
	}})
	slow := Report{CPU: cpu, Benchmarks: []Benchmark{
		{Name: "BenchmarkReroute", Iters: 1, NsPerOp: 1300},
		{Name: "BenchmarkOther", Iters: 1, NsPerOp: 1300},
	}}
	newPath := writeReport(t, "new.json", slow)
	gate := regexp.MustCompile(`^BenchmarkReroute$`)

	var sb strings.Builder
	if err := compareReports(oldPath, newPath, 10, gate, &sb); err == nil {
		t.Error("30% regression of a gated benchmark passed a 10% gate")
	} else if !strings.Contains(err.Error(), "BenchmarkReroute") || strings.Contains(err.Error(), "BenchmarkOther") {
		t.Errorf("gate error names the wrong benchmarks: %v", err)
	}
	// Within threshold: passes.
	okPath := writeReport(t, "ok.json", Report{CPU: cpu, Benchmarks: []Benchmark{
		{Name: "BenchmarkReroute", Iters: 1, NsPerOp: 1050},
		{Name: "BenchmarkOther", Iters: 1, NsPerOp: 9000},
	}})
	if err := compareReports(oldPath, okPath, 10, gate, &sb); err != nil {
		t.Errorf("5%% regression failed a 10%% gate: %v", err)
	}
	// Different CPU fingerprint: gate stands down, report only.
	slow.CPU = "OtherCPU @ 3.0GHz"
	crossPath := writeReport(t, "cross.json", slow)
	sb.Reset()
	if err := compareReports(oldPath, crossPath, 10, gate, &sb); err != nil {
		t.Errorf("cross-CPU comparison gated: %v", err)
	}
	if !strings.Contains(sb.String(), "regression gate disabled") {
		t.Error("cross-CPU stand-down not announced in the report")
	}
	// Report-only mode (maxregress 0) never fails.
	if err := compareReports(oldPath, newPath, 0, nil, &sb); err != nil {
		t.Errorf("report-only compare failed: %v", err)
	}
}
