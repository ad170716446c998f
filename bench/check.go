package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
)

// The output checks. Every plan the bench makes passes checkResult (or
// checkReport for a response body), repeats of an input must reproduce the
// first run's report digest, and the coarse suite plans must equal the
// repository's golden fixtures byte for byte.

// checkStages verifies the invariants every completed plan satisfies: all
// statistics are finite and no more buffers were placed than the circuit
// has sites.
func checkStages(stages []core.StageReport, sites int) error {
	if len(stages) == 0 {
		return fmt.Errorf("no stages")
	}
	for _, s := range stages {
		for _, v := range []float64{s.WireMax, s.WireAvg, s.BufMax, s.BufAvg, s.WirelenMm, s.MaxDelayPs, s.AvgDelayPs} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("stage %d: non-finite statistic %v", s.Stage, v)
			}
		}
	}
	if final := stages[len(stages)-1]; final.Buffers > sites {
		return fmt.Errorf("%d buffers placed on %d sites", final.Buffers, sites)
	}
	return nil
}

// checkOverflow verifies that the final stage has no more overflow than
// Stage 1. This holds on the suite circuits but is not guaranteed: Stage 4
// prices overflow without forbidding it, and about one random circuit in
// 1500 ends with one overflow more than it started with. It therefore gates
// the suite circuits only.
func checkOverflow(stages []core.StageReport) error {
	first, final := stages[0], stages[len(stages)-1]
	if final.Overflows > first.Overflows {
		return fmt.Errorf("final overflows %d exceed stage-1 overflows %d", final.Overflows, first.Overflows)
	}
	return nil
}

// reportBytes serializes a result the way the planning service does: the
// report with its wall-clock CPU column zeroed.
func reportBytes(res *core.Result) (*core.Report, []byte, error) {
	rep, err := res.Report()
	if err != nil {
		return nil, nil, err
	}
	for i := range rep.Stages {
		rep.Stages[i].CPUSeconds = 0
	}
	b, err := json.Marshal(rep)
	return rep, b, err
}

// checkReport verifies a report against the circuit it plans.
func checkReport(rep *core.Report, nets, sites int) error {
	if rep.Nets != nets || len(rep.PerNet) != nets {
		return fmt.Errorf("report covers %d/%d nets, circuit has %d", rep.Nets, len(rep.PerNet), nets)
	}
	return checkStages(rep.Stages, sites)
}

// goldenResult and goldenTree mirror the fixture layout of the repository's
// golden tests (testdata/golden_route and testdata/golden_backend): every
// stage statistic with CPU zeroed, every route node by node, and every
// buffer assignment, plus per-buffer gate choices for the backend fixtures.
type goldenResult struct {
	Capacity int               `json:"capacity"`
	Stages   []core.StageStats `json:"stages"`
	Routes   []goldenTree      `json:"routes"`
	Buffers  [][]int           `json:"buffers"`
}

type goldenTree struct {
	Tiles   [][2]int `json:"tiles"`
	Parents []int    `json:"parents"`
	Sinks   []int    `json:"sinks"`
}

type goldenBackendResult struct {
	goldenResult
	Gates [][]int `json:"gates"`
}

// goldenBytes serializes res in the fixture layout; withGates selects the
// backend fixtures' extended document.
func goldenBytes(res *core.Result, withGates bool) ([]byte, error) {
	gr := goldenResult{Capacity: res.Capacity}
	for _, s := range res.Stages {
		s.CPU = 0
		gr.Stages = append(gr.Stages, s)
	}
	for _, rt := range res.Routes {
		gt := goldenTree{Parents: rt.Parent, Sinks: rt.SinkNode}
		for _, p := range rt.Tile {
			gt.Tiles = append(gt.Tiles, [2]int{p.X, p.Y})
		}
		gr.Routes = append(gr.Routes, gt)
	}
	for _, a := range res.Assignments {
		pairs := []int{}
		for _, b := range a.Buffers {
			pairs = append(pairs, b.Node, b.Branch)
		}
		gr.Buffers = append(gr.Buffers, pairs)
	}
	if !withGates {
		return json.MarshalIndent(gr, "", " ")
	}
	br := goldenBackendResult{goldenResult: gr}
	for _, a := range res.Assignments {
		br.Gates = append(br.Gates, append([]int{}, a.Gates...))
	}
	return json.MarshalIndent(br, "", " ")
}

// checkGolden compares res with the fixture at path.
func checkGolden(res *core.Result, path string, withGates bool) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden fixture: %w", err)
	}
	got, err := goldenBytes(res, withGates)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("result differs from golden fixture %s", path)
	}
	return nil
}

type digest = [sha256.Size]byte
