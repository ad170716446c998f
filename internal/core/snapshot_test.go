package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/floorplan"
	"repro/internal/par"
	"repro/internal/tech"
)

// snapshotOracle is the stage accounting that snapshot replaced: it
// evaluates every net's sink delays again, over the worker pool, on the
// routes and buffers the stage left, where snapshot reduces the stage's
// own evaluation. A net whose evaluation fails is left out of the delay
// columns.
func snapshotOracle(s *state, stage int) StageStats {
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
	n := len(s.routes)
	fail, ok := make([]bool, n), make([]bool, n)
	off := make([]int, n+1)
	wireTiles := 0
	for i, rt := range s.routes {
		off[i+1] = off[i] + len(rt.SinkNode)
		wireTiles += rt.NumEdges()
	}
	ds := make([]float64, off[n])
	slots := s.evalSlots(n)
	_ = par.ForEachWorker(s.p.Workers, n, func(w, i int) error {
		rt := s.routes[i]
		if s.hasAsg[i] {
			fail[i] = !s.asg[i].Feasible()
		} else {
			fail[i] = rt.NumEdges() > s.c.Nets[i].L
		}
		if d, err := s.sinkDelays(&slots[w], rt, i); err == nil {
			copy(ds[off[i]:off[i+1]], d)
			ok[i] = true
		}
		return nil
	})
	var dst delay.Stats
	for i := 0; i < n; i++ {
		if fail[i] {
			st.Fails++
		}
		if ok[i] {
			dst.Add(ds[off[i]:off[i+1]])
		}
	}
	st.WirelenMm = float64(wireTiles) * s.c.TileUm / 1000
	st.MaxDelayPs = dst.MaxPs()
	st.AvgDelayPs = dst.AvgPs()
	st.NonFiniteDelays = dst.NonFinite
	return st
}

// sameRow reports whether two stage rows are bit-identical, CPU aside.
func sameRow(a, b StageStats) bool {
	fa := []float64{a.WireMax, a.WireAvg, a.BufMax, a.BufAvg, a.WirelenMm, a.MaxDelayPs, a.AvgDelayPs}
	fb := []float64{b.WireMax, b.WireAvg, b.BufMax, b.BufAvg, b.WirelenMm, b.MaxDelayPs, b.AvgDelayPs}
	for k := range fa {
		if math.Float64bits(fa[k]) != math.Float64bits(fb[k]) {
			return false
		}
	}
	return a.Stage == b.Stage && a.Overflows == b.Overflows && a.Buffers == b.Buffers &&
		a.Fails == b.Fails && a.NonFiniteDelays == b.NonFiniteDelays
}

// checkStageRows runs one engine's pipeline as RunContext or RunMCFContext
// does, with the oracle's row taken right after each stage function, on
// the state execute's own delay evaluation and snapshot then account. Every
// row of the result must be bit-identical to the oracle's.
func checkStageRows(t *testing.T, label string, st *state, mcfEngine bool) {
	t.Helper()
	var want []StageStats
	wrap := func(num int, f func() error) pipeStage {
		return pipeStage{num, func() error {
			if err := f(); err != nil {
				return err
			}
			want = append(want, snapshotOracle(st, num))
			return nil
		}}
	}
	stages := []pipeStage{wrap(1, st.stage1), wrap(2, st.stage2), wrap(3, st.stage3), wrap(4, st.stage4)}
	if mcfEngine {
		stages = []pipeStage{wrap(1, st.stage1), wrap(2, st.stage2MCF), wrap(3, st.stage3)}
	}
	res, err := st.execute(stages, false)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(res.Stages) != len(want) {
		t.Fatalf("%s: %d stage rows, oracle %d", label, len(res.Stages), len(want))
	}
	for k, got := range res.Stages {
		if !sameRow(got, want[k]) {
			t.Errorf("%s stage %d: row differs from the oracle\n got    %+v\n oracle %+v", label, got.Stage, got, want[k])
		}
	}
}

// suiteStage1Avg is the suite's Stage-1 calibration (exp.ParamsFor's
// targets, which this package cannot import).
var suiteStage1Avg = map[string]float64{
	"apte": 0.15, "xerox": 0.16, "hp": 0.31, "ami33": 0.31,
	"ami49": 0.37, "playout": 0.22,
	"ac3": 0.31, "xc5": 0.44, "hc7": 0.52, "a9c3": 0.56,
}

// TestStageRowsMatchOracle: a stage's row, reduced from the one delay
// evaluation that ends the stage, is bit-identical to the re-evaluating
// oracle after every stage — on the ten suite circuits at their coarse
// tilings under rabid, rabid+lib and mcf at Workers 1 and 2, and on apte,
// hp and ami33 at the paper's tilings under rabid.
func TestStageRowsMatchOracle(t *testing.T) {
	type run struct {
		name   string
		grid   [2]int // zero: the paper's tiling
		engine string
	}
	coarse := map[string][2]int{
		"apte": {10, 11}, "xerox": {10, 10}, "hp": {10, 10},
		"ami33": {11, 10}, "ami49": {10, 10}, "playout": {11, 10},
		"ac3": {10, 10}, "xc5": {10, 10}, "hc7": {10, 10}, "a9c3": {10, 10},
	}
	var runs []run
	for _, name := range []string{"apte", "xerox", "hp", "ami33", "ami49", "playout", "ac3", "xc5", "hc7", "a9c3"} {
		for _, engine := range []string{"rabid", "rabid+lib", "mcf"} {
			runs = append(runs, run{name, coarse[name], engine})
		}
	}
	if !testing.Short() && !raceEnabled {
		for _, name := range []string{"apte", "hp", "ami33"} {
			runs = append(runs, run{name: name, engine: "rabid"})
		}
	}
	for _, r := range runs {
		spec, err := floorplan.BySuiteName(r.name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := floorplan.Generate(spec, floorplan.Options{GridW: r.grid[0], GridH: r.grid[1]})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			p := DefaultParams()
			p.TargetStage1Avg = suiteStage1Avg[r.name]
			p.Workers = workers
			if r.engine == "rabid+lib" {
				p.Library = tech.DefaultPlanningLibrary018()
			}
			st, err := newState(context.Background(), c, p)
			if err != nil {
				t.Fatal(err)
			}
			checkStageRows(t, fmt.Sprintf("%s %dx%d %s workers=%d", r.name, c.GridW, c.GridH, r.engine, workers), st, r.engine == "mcf")
		}
	}
}
