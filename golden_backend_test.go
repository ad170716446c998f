package rabid

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/par"
)

// updateBackendGolden regenerates the checked-in backend golden fixtures
// (same idiom as -update-route-golden). Regenerate only when a change is
// *meant* to alter an engine's results, and say so in the PR.
var updateBackendGolden = flag.Bool("update-backend-golden", false, "rewrite testdata/golden_backend fixtures")

// goldenBackendNames are the suite circuits the mcf and rabid+lib engines
// are pinned on (coarse tilings; the rabid engine is already pinned suite-
// wide by testdata/golden_route).
var goldenBackendNames = []string{"apte", "ami49", "playout"}

// goldenBackendResult extends the router golden document with the
// per-buffer gate choices of the library DP (index into Params.Library;
// empty per-net lists for the single-type engines).
type goldenBackendResult struct {
	goldenResult
	Gates [][]int `json:"gates"`
}

func goldenBackendBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var base goldenResult
	if err := json.Unmarshal(goldenBytes(t, res), &base); err != nil {
		t.Fatal(err)
	}
	gr := goldenBackendResult{goldenResult: base}
	for _, a := range res.Assignments {
		gates := []int{}
		gates = append(gates, a.Gates...)
		gr.Gates = append(gr.Gates, gates)
	}
	b, err := json.MarshalIndent(gr, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenBackendEquivalence pins the mcf and rabid+lib engines to
// checked-in fixtures on three suite circuits, and asserts each engine is
// deterministic across Workers 1/2/4/8 — the same byte-identity contract
// the rabid engine carries via testdata/golden_route.
func TestGoldenBackendEquivalence(t *testing.T) {
	engines := []string{"mcf", "rabid+lib"}
	type job struct {
		engine  string
		circuit string
	}
	var jobs []job
	for _, e := range engines {
		for _, name := range goldenBackendNames {
			jobs = append(jobs, job{e, name})
		}
	}
	got := make([][]byte, len(jobs))
	if err := par.ForEach(0, len(jobs), func(i int) error {
		name := jobs[i].circuit
		g := coarseGrids[name]
		c, err := GenerateBenchmark(name, GenOptions{GridW: g[0], GridH: g[1]})
		if err != nil {
			return err
		}
		for wi, workers := range []int{1, 2, 4, 8} {
			p := BenchmarkParams(name)
			p.Backend = jobs[i].engine
			p.Workers = workers
			res, err := Plan(context.Background(), c, p)
			if err != nil {
				return err
			}
			b := goldenBackendBytes(t, res)
			if wi == 0 {
				got[i] = b
			} else if !bytes.Equal(got[i], b) {
				t.Errorf("%s/%s: Workers=1 and Workers=%d results differ", jobs[i].engine, name, workers)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		// "+" is awkward in filenames; fixture files use "rabidlib".
		dir := map[string]string{"mcf": "mcf", "rabid+lib": "rabidlib"}[j.engine]
		path := filepath.Join("testdata", "golden_backend", dir, j.circuit+".json")
		if *updateBackendGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got[i], 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s (regenerate deliberately with -update-backend-golden)", err)
		}
		if !bytes.Equal(want, got[i]) {
			t.Errorf("%s/%s: result differs from golden fixture %s (engines must stay byte-deterministic)", j.engine, j.circuit, path)
		}
	}
}

// TestReportPerNetDelayMatchesStage: a report's per-net delays price every
// buffer with the gate its net's assignment chose, as the final stage's
// delay column does, so the largest per-net delay is the stage's maximum
// for every engine (rabid+lib places gates other than the planning
// buffer).
func TestReportPerNetDelayMatchesStage(t *testing.T) {
	for _, name := range goldenBackendNames {
		g := coarseGrids[name]
		c, err := GenerateBenchmark(name, GenOptions{GridW: g[0], GridH: g[1]})
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{"rabid", "rabid+lib", "mcf"} {
			p := BenchmarkParams(name)
			p.Backend = engine
			res, err := Plan(context.Background(), c, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, engine, err)
			}
			rep, err := res.Report()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, engine, err)
			}
			perNet := 0.0
			for _, nr := range rep.PerNet {
				perNet = max(perNet, nr.MaxDelayPs)
			}
			if final := rep.Stages[len(rep.Stages)-1]; perNet != final.MaxDelayPs {
				t.Errorf("%s/%s: largest per-net delay %.2f ps, final stage %.2f ps", name, engine, perNet, final.MaxDelayPs)
			}
		}
	}
}

// TestRetimeAndLayersDelayMatchStage: the timing-driven retime and the
// layer evaluation price every buffer with the gate its net's assignment
// chose, as the final stage's delay column does. On coarse apte the retime
// of the single worst net starts from the stage's maximum delay, and so
// does the layer evaluation with every net on the thin layer (whose wire
// parasitics are the base technology's), for every engine.
func TestRetimeAndLayersDelayMatchStage(t *testing.T) {
	g := coarseGrids["apte"]
	c, err := GenerateBenchmark("apte", GenOptions{GridW: g[0], GridH: g[1]})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"rabid", "rabid+lib", "mcf"} {
		p := BenchmarkParams("apte")
		p.Backend = engine
		res, err := Plan(context.Background(), c, p)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		want := res.Stages[len(res.Stages)-1].MaxDelayPs
		thin := &LayerAssignment{Stack: DefaultStack018(), LayerOf: make([]int, len(c.Nets))}
		if got, _, err := thin.Evaluate(res, res.Params.Tech); err != nil || got != want {
			t.Errorf("%s: thin-layer Evaluate max %.2f ps (err %v), final stage %.2f ps", engine, got, err, want)
		}
		// The retime releases and re-places the worst net's buffers on the
		// result's graph, so it runs last.
		reps, err := RetimeCriticalNets(res, 1, DefaultLibrary018())
		if err != nil || len(reps) != 1 {
			t.Fatalf("%s: retime: %v (%d reports)", engine, err, len(reps))
		}
		if got := reps[0].BeforeMaxPs; got != want {
			t.Errorf("%s: retime BeforeMaxPs %.2f ps, final stage %.2f ps", engine, got, want)
		}
	}
}
