package rabid

import (
	"bytes"
	"testing"

	"repro/internal/exp"
	"repro/internal/par"
)

// TestKernelSuiteEquivalence is the pipeline-level acceptance gate of the
// search kernels, over all ten suite circuits (CI's test job runs it under
// -race):
//
//   - Stages 1–3 must be BYTE-identical under "heap" and "astar", under
//     both Steiner modes: the kernel reaches only the Stage-4 search, so
//     with Stage 4 skipped nothing may differ — in particular not the
//     cost-distance mode's alpha = 1 Stage 2.
//   - "astar" must be deterministic: byte-identical to itself at Workers
//     1/2/4/8. Its Stage-4 popped order differs from heap's, so equal-cost
//     tie-breaks may pick different trees and full-pipeline bytes are NOT
//     compared against heap; the per-call cost identity is proven at the
//     unit level (internal/route TestAstarCostIdenticalPath and
//     TestBufferAwarePathMatchesOracle).
func TestKernelSuiteEquivalence(t *testing.T) {
	names := append(append([]string{}, exp.CBLNames...), exp.RandomNames...)
	workers := []int{1, 2, 4, 8}
	if err := par.ForEach(0, len(names), func(i int) error {
		name := names[i]
		g := coarseGrids[name]
		c, err := GenerateBenchmark(name, GenOptions{GridW: g[0], GridH: g[1]})
		if err != nil {
			return err
		}
		run := func(kernel, mode string, skipStage4 bool, w int) []byte {
			p := BenchmarkParams(name)
			p.SearchKernel = kernel
			p.SteinerMode = mode
			p.SkipStage4 = skipStage4
			p.Workers = w
			res, err := Run(c, p)
			if err != nil {
				t.Errorf("%s/%s/%s/w%d: %v", name, kernel, mode, w, err)
				return nil
			}
			return goldenBytes(t, res)
		}
		for _, mode := range SteinerModes() {
			if !bytes.Equal(run("heap", mode, true, 1), run("astar", mode, true, 1)) {
				t.Errorf("%s/%s: Stages 1-3 differ between heap and astar (the kernel must reach Stage 4 only)", name, mode)
			}
		}
		var astarBytes []byte
		for _, w := range workers {
			ab := run("astar", "", false, w)
			if astarBytes == nil {
				astarBytes = ab
			} else if !bytes.Equal(ab, astarBytes) {
				t.Errorf("%s: astar result at Workers=%d differs from Workers=1 (kernel nondeterministic)", name, w)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
