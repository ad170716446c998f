// Benchmarks regenerating the paper's experiments. One benchmark per table
// (I-V) plus microbenchmarks of the core algorithms and ablations of the
// design choices called out in DESIGN.md.
//
// Per-iteration work is a full experiment, so most of these run a handful
// of iterations; the interesting output is wall time per operation, which
// corresponds to the paper's CPU columns.
package rabid

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/bufferdp"
	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/rtree"
)

// BenchmarkTable1Suite generates all ten benchmark circuits (Table I).
func BenchmarkTable1Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range floorplan.Suite() {
			if _, err := floorplan.Generate(spec, floorplan.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2Stages runs the full four-stage RABID pipeline per CBL
// circuit (Table II). Sub-benchmarks are named by circuit.
func BenchmarkTable2Stages(b *testing.B) {
	for _, name := range exp.CBLNames {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.RunBenchmark(name, floorplan.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Random covers the four random circuits of Table II.
func BenchmarkTable2Random(b *testing.B) {
	for _, name := range exp.RandomNames {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.RunBenchmark(name, floorplan.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Sites sweeps the buffer-site budget (Table III) on apte.
func BenchmarkTable3Sites(b *testing.B) {
	for _, sites := range []int{280, 700, 3200} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.RunBenchmark("apte", floorplan.Options{Sites: sites}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4Grids sweeps the tiling granularity (Table IV) on apte;
// the paper observes CPU growing slightly superlinearly with tile count.
func BenchmarkTable4Grids(b *testing.B) {
	for _, g := range [][2]int{{10, 11}, {20, 22}, {30, 33}, {40, 44}} {
		b.Run(fmt.Sprintf("grid=%dx%d", g[0], g[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.RunBenchmark("apte", floorplan.Options{GridW: g[0], GridH: g[1]}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5VsBBP runs the RABID-versus-BBP/FR comparison (Table V).
func BenchmarkTable5VsBBP(b *testing.B) {
	for _, name := range []string{"apte", "hp", "ami33"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.RunTable5Pair(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- parallel execution layer ----------------------------------------

// BenchmarkPipelineWorkers measures the deterministic worker pool on the
// full pipeline: workers=1 is the sequential baseline, workers=0 uses all
// CPUs. Stage-1 Steiner construction, the per-stage delay refresh, and the
// snapshot accounting fan out; results are bit-identical for every value.
func BenchmarkPipelineWorkers(b *testing.B) {
	c, err := GenerateBenchmark("apte", GenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := BenchmarkParams("apte")
			p.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := Run(c, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSuiteFanout runs the whole ten-circuit suite (the Table II
// workload) through the per-benchmark fan-out, sequentially and with one
// worker per CPU.
func BenchmarkSuiteFanout(b *testing.B) {
	names := append(append([]string{}, exp.CBLNames...), exp.RandomNames...)
	for _, w := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := par.ForEach(w, len(names), func(j int) error {
					_, err := exp.RunBenchmark(names[j], floorplan.Options{})
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunSuite runs the full four-stage pipeline over every suite
// benchmark at the coarse unit-test tilings, sequentially with one worker —
// the end-to-end workload the router hot-path overhaul targets. ns/op and
// allocs/op here are the system-level counterpart of the internal/route
// kernel microbenchmarks (BenchmarkReroute etc.); scripts/bench_compare.sh
// snapshots both into BENCH_route.json.
func BenchmarkRunSuite(b *testing.B) {
	names := append(append([]string{}, exp.CBLNames...), exp.RandomNames...)
	type job struct {
		c *Circuit
		p Params
	}
	jobs := make([]job, len(names))
	for i, name := range names {
		g := coarseGrids[name]
		c, err := GenerateBenchmark(name, GenOptions{GridW: g[0], GridH: g[1]})
		if err != nil {
			b.Fatal(err)
		}
		p := BenchmarkParams(name)
		p.Workers = 1
		jobs[i] = job{c, p}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if _, err := Run(j.c, j.p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBackendPlan compares the three planning engines on coarse apte
// — the backend registry's cross-engine cost picture (ns/op per engine is
// the CPU column of the Table VI comparison). Sub-benchmarks are named by
// engine; scripts/bench_compare.sh snapshots them into BENCH_route.json.
func BenchmarkBackendPlan(b *testing.B) {
	g := coarseGrids["apte"]
	c, err := GenerateBenchmark("apte", GenOptions{GridW: g[0], GridH: g[1]})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range Backends() {
		b.Run(name, func(b *testing.B) {
			p := BenchmarkParams("apte")
			p.Backend = name
			p.Workers = 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Plan(context.Background(), c, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- core-algorithm microbenchmarks ----------------------------------

// pathTree builds a straight n-tile route.
func pathTree(n int) *rtree.Tree {
	parent := map[geom.Pt]geom.Pt{}
	for x := 1; x < n; x++ {
		parent[geom.Pt{X: x}] = geom.Pt{X: x - 1}
	}
	t, err := rtree.FromParentMap(geom.Pt{}, parent, []geom.Pt{{X: n - 1}})
	if err != nil {
		panic(err)
	}
	return t
}

// BenchmarkFig7SingleSinkDP measures the O(nL) single-sink buffer DP
// (Fig. 6/7) on paths of increasing length; ns/op should scale linearly
// with n, the complexity claim of Section III-C.
func BenchmarkFig7SingleSinkDP(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		rt := pathTree(n)
		q := func(v int) float64 {
			if v%7 == 0 {
				return math.Inf(1)
			}
			return 1 + float64(v%5)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bufferdp.Assign(rt, 6, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiSinkDP measures the multi-sink variant (Fig. 9) on a comb
// tree with many branch joins (the O(mL^2) term).
func BenchmarkMultiSinkDP(b *testing.B) {
	// Comb: spine along x, a 3-tile tooth at every 4th spine tile.
	parent := map[geom.Pt]geom.Pt{}
	var sinks []geom.Pt
	for x := 1; x < 128; x++ {
		parent[geom.Pt{X: x}] = geom.Pt{X: x - 1}
		if x%4 == 0 {
			for y := 1; y <= 3; y++ {
				parent[geom.Pt{X: x, Y: y}] = geom.Pt{X: x, Y: y - 1}
			}
			sinks = append(sinks, geom.Pt{X: x, Y: 3})
		}
	}
	sinks = append(sinks, geom.Pt{X: 127})
	rt, err := rtree.FromParentMap(geom.Pt{}, parent, sinks)
	if err != nil {
		b.Fatal(err)
	}
	q := func(v int) float64 { return 1 + float64(v%3) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bufferdp.Assign(rt, 6, q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations ---------------------------------------------------------

// ablationRun plans apte with a parameter mutation through the engine it
// names (Plan; the default is the rabid pipeline) and reports the final
// fails/overflow/delay as benchmark metrics.
func ablationRun(b *testing.B, mutate func(*Params)) {
	b.Helper()
	c, err := GenerateBenchmark("apte", GenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	p := BenchmarkParams("apte")
	mutate(&p)
	var fails, overflow, delay float64
	for i := 0; i < b.N; i++ {
		res, err := Plan(context.Background(), c, p)
		if err != nil {
			b.Fatal(err)
		}
		f := res.Stages[len(res.Stages)-1]
		fails = float64(f.Fails)
		overflow = float64(f.Overflows)
		delay = f.AvgDelayPs
	}
	b.ReportMetric(fails, "fails")
	b.ReportMetric(overflow, "overflow")
	b.ReportMetric(delay, "avg-ps")
}

// BenchmarkAblationRipupAll contrasts Nair-style full rip-up (3 passes,
// the paper's choice) with a single pass.
func BenchmarkAblationRipupAll(b *testing.B) {
	b.Run("passes=3", func(b *testing.B) { ablationRun(b, func(p *Params) { p.MaxRipupPasses = 3 }) })
	b.Run("passes=1", func(b *testing.B) { ablationRun(b, func(p *Params) { p.MaxRipupPasses = 1 }) })
}

// BenchmarkAblationAlpha sweeps the Prim-Dijkstra tradeoff around the
// paper's 0.4.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, a := range []float64{0.0, 0.4, 1.0} {
		b.Run(fmt.Sprintf("alpha=%.1f", a), func(b *testing.B) {
			ablationRun(b, func(p *Params) { p.Alpha = a; p.RouteOpt.Alpha = a })
		})
	}
}

// BenchmarkAblationDemandTerm removes the probabilistic p(v) term from the
// Eq. (2) site cost.
func BenchmarkAblationDemandTerm(b *testing.B) {
	b.Run("with-p", func(b *testing.B) { ablationRun(b, func(p *Params) {}) })
	b.Run("without-p", func(b *testing.B) { ablationRun(b, func(p *Params) { p.DisableDemandTerm = true }) })
}

// BenchmarkAblationMCFRouter contrasts the rabid pipeline's Nair-style
// rip-up with the mcf engine, the multicommodity-flow alternative to
// Stages 1-2 the paper names.
func BenchmarkAblationMCFRouter(b *testing.B) {
	b.Run("ripup", func(b *testing.B) { ablationRun(b, func(p *Params) {}) })
	b.Run("mcf", func(b *testing.B) { ablationRun(b, func(p *Params) { p.Backend = "mcf" }) })
}

// BenchmarkAblationTwoPath contrasts the full pipeline with Stage 4
// disabled (the two-path post-processing the paper credits for the final
// fails/wirelength reductions).
func BenchmarkAblationTwoPath(b *testing.B) {
	b.Run("with-stage4", func(b *testing.B) { ablationRun(b, func(p *Params) {}) })
	b.Run("without-stage4", func(b *testing.B) { ablationRun(b, func(p *Params) { p.SkipStage4 = true }) })
}
