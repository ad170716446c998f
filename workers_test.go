package rabid

import (
	"bytes"
	"testing"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/par"
)

// coarseGrids mirrors the fast tilings of the exp suite test so the whole
// benchmark suite stays tractable in unit-test time.
var coarseGrids = map[string][2]int{
	"apte": {10, 11}, "xerox": {10, 10}, "hp": {10, 10},
	"ami33": {11, 10}, "ami49": {10, 10}, "playout": {11, 10},
	"ac3": {10, 10}, "xc5": {10, 10}, "hc7": {10, 10}, "a9c3": {10, 10},
}

// determinismWorkers are the worker counts the determinism suites compare;
// the first is the reference.
var determinismWorkers = []int{1, 2, 4, 8}

// workersOutcome is one circuit's runs, in determinismWorkers order.
type workersOutcome struct {
	res []*Result
	evs [][]byte // JSON-lines event stream
}

// runSuiteAtWorkers runs every suite circuit on its coarse grid at each of
// determinismWorkers, with BenchmarkParams adjusted by tune (nil keeps
// them). The per-circuit runs fan out over the pool, so with -race (as
// in CI) this also race-checks the layer.
func runSuiteAtWorkers(t *testing.T, tune func(*Params)) ([]string, []workersOutcome) {
	t.Helper()
	names := append(append([]string{}, exp.CBLNames...), exp.RandomNames...)
	outcomes := make([]workersOutcome, len(names))
	if err := par.ForEach(0, len(names), func(i int) error {
		name := names[i]
		g := coarseGrids[name]
		c, err := GenerateBenchmark(name, GenOptions{GridW: g[0], GridH: g[1]})
		if err != nil {
			return err
		}
		for _, workers := range determinismWorkers {
			var evBuf bytes.Buffer
			sink := obs.NewJSONLines(&evBuf)
			p := BenchmarkParams(name)
			if tune != nil {
				tune(&p)
			}
			p.Workers = workers
			p.Observer = sink
			res, err := Run(c, p)
			if err != nil {
				return err
			}
			if err := sink.Err(); err != nil {
				return err
			}
			outcomes[i].res = append(outcomes[i].res, res)
			outcomes[i].evs = append(outcomes[i].evs, evBuf.Bytes())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return names, outcomes
}

// checkWorkersIdentical fails t unless every circuit's result bytes (stage
// stats with CPU zeroed, route trees node for node, buffer assignments)
// and event stream are the same at every worker count as at the first.
func checkWorkersIdentical(t *testing.T, names []string, outcomes []workersOutcome) {
	t.Helper()
	for i, name := range names {
		o := outcomes[i]
		ref := goldenBytes(t, o.res[0])
		for k, workers := range determinismWorkers[1:] {
			if !bytes.Equal(goldenBytes(t, o.res[k+1]), ref) {
				t.Errorf("%s: Workers=%d result differs from Workers=%d", name, workers, determinismWorkers[0])
			}
			if !bytes.Equal(o.evs[k+1], o.evs[0]) {
				t.Errorf("%s: Workers=%d event stream differs from Workers=%d", name, workers, determinismWorkers[0])
			}
		}
	}
}

// TestWorkersDeterminismSuite is the worker pool's determinism gate: on
// every suite circuit at its benchmark parameters, Workers 1/2/4/8 must
// produce a byte-identical full result and JSON-lines event stream — the
// pool must be pure parallelism, never a behaviour change.
func TestWorkersDeterminismSuite(t *testing.T) {
	names, outcomes := runSuiteAtWorkers(t, nil)
	checkWorkersIdentical(t, names, outcomes)
}

// ripupSuiteStage1Avg is the calibration target of the rip-up determinism
// suite: high enough that every suite circuit leaves Stage 1 overflowing.
const ripupSuiteStage1Avg = 0.8

// TestRipupParallelDeterminismSuite is the same gate with every circuit
// driven through Stage 2's rip-up passes. At the benchmark calibration
// most coarse circuits leave Stage 1 overflow-free and skip Stage 2, so
// here the capacity is calibrated to a Stage-1 average congestion of
// ripupSuiteStage1Avg: each circuit must enter Stage 2 overflowing, and its
// passes — sequential on the run's one workspace, whatever Workers sizes
// elsewhere — must leave results and event streams identical at Workers
// 1/2/4/8.
func TestRipupParallelDeterminismSuite(t *testing.T) {
	names, outcomes := runSuiteAtWorkers(t, func(p *Params) { p.TargetStage1Avg = ripupSuiteStage1Avg })
	for i, name := range names {
		st := outcomes[i].res[0].Stages
		t.Logf("%s: Stage-1 overflow %d, Stage-2 overflow %d", name, st[0].Overflows, st[1].Overflows)
		if st[0].Overflows == 0 {
			t.Errorf("%s: Stage 1 is overflow-free at TargetStage1Avg %v, so Stage 2 runs no rip-up pass", name, ripupSuiteStage1Avg)
		}
	}
	checkWorkersIdentical(t, names, outcomes)
}

// TestSuiteFanoutMatchesSequential checks the experiment-suite layer the
// same way: running benchmarks concurrently must not change any of them.
func TestSuiteFanoutMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("suite fan-out in -short mode")
	}
	names := []string{"apte", "hp", "ac3"}
	runOne := func(name string) []StageStats {
		g := coarseGrids[name]
		res, err := exp.RunBenchmark(name, floorplan.Options{GridW: g[0], GridH: g[1]})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages
	}
	want := make([][]StageStats, len(names))
	for i, name := range names {
		want[i] = runOne(name)
	}
	got := make([][]StageStats, len(names))
	if err := par.ForEach(len(names), len(names), func(i int) error {
		got[i] = runOne(names[i])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		for si := range want[i] {
			a, b := want[i][si], got[i][si]
			a.CPU, b.CPU = 0, 0
			if a != b {
				t.Errorf("%s stage %d: fan-out run diverges from sequential", name, si+1)
			}
		}
	}
}
