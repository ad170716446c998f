// Command benchjson converts `go test -bench` text output into a stable
// JSON document, and compares two such documents.
//
//	go test -run '^$' -bench . -benchmem ./internal/route | benchjson -o BENCH_route.json
//	benchjson -compare baseline.json current.json
//
// The JSON form is what the repo checks in as benchmark baselines
// (BENCH_route.json) and what CI uploads as artifacts: one object with the
// host fingerprint lines go test prints (goos/goarch/pkg/cpu) and a
// name-sorted benchmark list, so diffs between runs are line-local.
//
// Compare mode prints a per-benchmark delta table (ns/op, B/op, allocs/op)
// and by default exits 0: wall-clock numbers from shared CI runners are too
// noisy to fail a build on unconditionally. -maxregress N turns the
// comparison into a gate for the benchmarks matching -gate (a Go regexp;
// default all): any matched benchmark whose ns/op regressed by more than N
// percent fails the run. The gate automatically stands down — report only,
// exit 0 — when the two reports carry different CPU fingerprints, because a
// cross-machine wall-clock delta measures the hardware, not the change.
// The allocation contracts that must not regress regardless of hardware
// are enforced by tests (internal/route/alloc_test.go), not here.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line. PopsOp and RelaxOp capture the
// router's custom b.ReportMetric columns (pops/op, relaxations/op) from
// the Stage-4 search benchmarks (BenchmarkBufferAwarePath[Incumbent]) —
// the checked-in baseline records the search's queue work next to its
// time, so these survive the conversion.
type Benchmark struct {
	Name     string  `json:"name"`
	Pkg      string  `json:"pkg,omitempty"`
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   float64 `json:"bytes_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
	PopsOp   float64 `json:"pops_per_op,omitempty"`
	RelaxOp  float64 `json:"relaxations_per_op,omitempty"`
}

// Report is the checked-in/artifact document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	compare := flag.Bool("compare", false, "compare two JSON reports: benchjson -compare old.json new.json")
	maxRegress := flag.Float64("maxregress", 0, "with -compare: fail when a gated benchmark's ns/op regresses by more than this percent (0 = report only)")
	gate := flag.String("gate", "", "with -maxregress: regexp selecting the benchmark names to gate (default: all)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [-maxregress pct [-gate regexp]] old.json new.json")
			os.Exit(2)
		}
		var gateRE *regexp.Regexp
		if *gate != "" {
			re, err := regexp.Compile(*gate)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: bad -gate:", err)
				os.Exit(2)
			}
			gateRE = re
		}
		if err := compareReports(flag.Arg(0), flag.Arg(1), *maxRegress, gateRE, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` text output. Unknown lines are ignored so
// test chatter (PASS, ok, warm-up logs) passes through harmlessly.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		a, b := rep.Benchmarks[i], rep.Benchmarks[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		return a.Name < b.Name
	})
	return rep, nil
}

// parseLine parses one result line, e.g.
//
//	BenchmarkReroute-8   27428   43007 ns/op   1 B/op   0 allocs/op
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false
	}
	name := f[0]
	// Strip the -GOMAXPROCS suffix so baselines compare across machines.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iters: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp, seen = v, true
		case "B/op":
			b.BPerOp = v
		case "allocs/op":
			b.AllocsOp = v
		case "pops/op":
			b.PopsOp = v
		case "relaxations/op":
			b.RelaxOp = v
		}
	}
	return b, seen
}

func load(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(buf, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareReports prints old-vs-new deltas for every benchmark present in
// both reports, and names the ones present in only one. With maxRegress > 0
// it also gates: a benchmark matching gateRE (nil = all) whose ns/op
// regressed by more than maxRegress percent is an error — unless the two
// reports were taken on different CPUs, where wall-clock deltas measure
// the hardware and the gate stands down to report-only.
func compareReports(oldPath, newPath string, maxRegress float64, gateRE *regexp.Regexp, w io.Writer) error {
	oldRep, err := load(oldPath)
	if err != nil {
		return err
	}
	newRep, err := load(newPath)
	if err != nil {
		return err
	}
	gating := maxRegress > 0
	if gating && oldRep.CPU != newRep.CPU {
		fmt.Fprintf(w, "note: baseline CPU %q != current CPU %q; regression gate disabled (report only)\n",
			oldRep.CPU, newRep.CPU)
		gating = false
	}
	oldBy := map[string]Benchmark{}
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	var violations []string
	fmt.Fprintf(w, "%-28s %14s %14s %8s %12s %12s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "%-28s %14s %14.0f %8s %12s %12.0f\n",
				nb.Name, "(new)", nb.NsPerOp, "", "", nb.AllocsOp)
			continue
		}
		delete(oldBy, nb.Name)
		delta := "n/a"
		if ob.NsPerOp > 0 {
			pct := 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
			delta = fmt.Sprintf("%+.1f%%", pct)
			if gating && pct > maxRegress && (gateRE == nil || gateRE.MatchString(nb.Name)) {
				violations = append(violations,
					fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%% > %+.1f%%)", nb.Name, ob.NsPerOp, nb.NsPerOp, pct, maxRegress))
			}
		}
		fmt.Fprintf(w, "%-28s %14.0f %14.0f %8s %12.0f %12.0f\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, delta, ob.AllocsOp, nb.AllocsOp)
	}
	gone := make([]string, 0, len(oldBy))
	for name := range oldBy {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "%-28s %14.0f %14s\n", name, oldBy[name].NsPerOp, "(removed)")
	}
	if len(violations) > 0 {
		return fmt.Errorf("benchmark regression gate (> %.0f%%):\n  %s", maxRegress, strings.Join(violations, "\n  "))
	}
	return nil
}
