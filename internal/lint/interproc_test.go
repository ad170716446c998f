package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// findingsText renders findings exactly as the CLI does, for byte-identity
// comparisons.
func findingsText(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// corpusFinding locates the unique finding of one check on one line of the
// corpus run.
func corpusFinding(t *testing.T, fs []Finding, file, check string, substr string) Finding {
	t.Helper()
	for _, f := range fs {
		if f.File == file && f.Check == check && strings.Contains(f.Message, substr) {
			return f
		}
	}
	t.Fatalf("no %s finding in %s with message containing %q", check, file, substr)
	return Finding{}
}

// TestCorpusCallPaths asserts the interprocedural findings carry the full
// witness chain down to the leaf primitive — the property that makes a
// transitive finding actionable.
func TestCorpusCallPaths(t *testing.T) {
	mod, err := corpusMod()
	if err != nil {
		t.Fatal(err)
	}
	fs := Run(mod, nil)
	for _, tc := range []struct {
		file, check, path string
	}{
		{"clock/clock_trans.go", "wallclock", "clock.Hidden → clock.hiddenNow → time.Now"},
		{"rng/rng_trans.go", "globalrand", "rng.HiddenDraw → rng.hiddenDraw → rand.Intn"},
		{"route/transitive.go", "maprange", "route.UsesHelper → geomlib.SumValues → range over map"},
		{"ctxlib/ctxlib.go", "ctxflow", "ctxlib.DropsCtx → ctxlib.blessedRoot → context.Background"},
	} {
		corpusFinding(t, fs, tc.file, tc.check, tc.path)
	}
}

// TestCheckSelection locks RunChecks' -only semantics: a narrowed run
// reports only the selected checks, but malformed //rabid:allow annotations
// always surface.
func TestCheckSelection(t *testing.T) {
	mod, err := corpusMod()
	if err != nil {
		t.Fatal(err)
	}
	fs := RunChecks(mod, nil, map[string]bool{"ctxflow": true})
	var sawCtx, sawAllow bool
	for _, f := range fs {
		switch f.Check {
		case "ctxflow":
			sawCtx = true
		case "allow":
			sawAllow = true
		default:
			t.Errorf("check %q reported under -only ctxflow: %s", f.Check, f)
		}
	}
	if !sawCtx {
		t.Error("-only ctxflow reported no ctxflow findings")
	}
	if !sawAllow {
		t.Error("-only ctxflow dropped the malformed-annotation findings")
	}
}

// TestLoadWorkersDeterministic is the parallel-parse acceptance criterion:
// the rendered findings are byte-identical at every worker count.
func TestLoadWorkersDeterministic(t *testing.T) {
	var want string
	for i, workers := range []int{1, 2, 3, 8} {
		mod, err := LoadWorkers("testdata/corpus", nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := findingsText(Run(mod, nil))
		if i == 0 {
			want = got
			if want == "" {
				t.Fatal("corpus produced no findings; determinism check is vacuous")
			}
			continue
		}
		if got != want {
			t.Errorf("findings differ between workers=1 and workers=%d:\n--- workers=1\n%s--- workers=%d\n%s",
				workers, want, workers, got)
		}
	}
}

// escWantLine locates the "// escwant" marker in the escape corpus.
func escWantLine(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("testdata/corpus/esc/esc.go")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, "// escwant") {
			return i + 1
		}
	}
	t.Fatal("escape corpus lost its escwant marker")
	return 0
}

// TestEscapeGateCorpus drives the compiler-backed gate over the corpus
// module with a temporary hot-set manifest: the seeded escape is reported
// at its exact line, the allocation-free function and the baselined
// allocation are not.
func TestEscapeGateCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build")
	}
	mod, err := corpusMod()
	if err != nil {
		t.Fatal(err)
	}
	hotset := filepath.Join(t.TempDir(), "hotset.txt")
	if err := os.WriteFile(hotset, []byte("# corpus gate\nesc.Leak\nesc.Sum\nesc.Baselined\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := EscapeGate(mod, hotset)
	if err != nil {
		t.Fatal(err)
	}
	wantLine := escWantLine(t)
	if len(fs) != 1 {
		t.Fatalf("want exactly the seeded escape, got %d findings:\n%s", len(fs), findingsText(fs))
	}
	f := fs[0]
	if f.Check != "allocfree" || f.File != "esc/esc.go" || f.Line != wantLine {
		t.Errorf("seeded escape reported at %s:%d [%s], want esc/esc.go:%d [allocfree]", f.File, f.Line, f.Check, wantLine)
	}
	if !strings.Contains(f.Message, "esc.Leak") {
		t.Errorf("finding does not name the hot-set function: %q", f.Message)
	}
}

// TestEscapeGateStaleSymbol locks the manifest-rot failure mode: a symbol
// that no longer resolves is a hard error naming it, not a silent skip.
func TestEscapeGateStaleSymbol(t *testing.T) {
	mod, err := corpusMod()
	if err != nil {
		t.Fatal(err)
	}
	hotset := filepath.Join(t.TempDir(), "hotset.txt")
	if err := os.WriteFile(hotset, []byte("esc.Leak\nesc.Renamed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := EscapeGate(mod, hotset); err == nil || !strings.Contains(err.Error(), "esc.Renamed") {
		t.Errorf("stale hot-set symbol not reported, err = %v", err)
	}
}

// TestEscapeGateSelfClean is the shipped-tree half of the allocfree
// acceptance criterion: the real hot set produces zero unbaselined escape
// diagnostics. The same invariant CI enforces with `rabidlint -escape`.
func TestEscapeGateSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole module")
	}
	mod, err := Load(repoRoot(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := EscapeGate(mod, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("hot set not allocation-clean: %s", f)
	}
}

// TestSeededInterprocedural seeds one violation of each interprocedural
// class into the PR 7 packages via the overlay and asserts the exact
// file:line:check plus the full call path in the message — the acceptance
// criterion that a wrapper-hidden regression fails CI with an actionable
// trace.
func TestSeededInterprocedural(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	journalSeed := `package journal

import "time"

func zzHidden() time.Time {
	return time.Now() // line 6: wallclock (direct, at the leaf)
}

func zzWhen() time.Time {
	return zzHidden() // line 10: wallclock (transitive, with path)
}
`
	serverSeed := `package server

import (
	"context"

	"repro/internal/core"
	"repro/internal/netlist"
)

func zzHandle(ctx context.Context, c *netlist.Circuit) {
	_, _ = core.Run(c, core.Params{}) // line 11: ctxflow (drops ctx into core.Run)
}
`
	mod, err := Load(repoRoot(t), map[string][]byte{
		"internal/journal/zz_seeded.go": []byte(journalSeed),
		"internal/server/zz_seeded.go":  []byte(serverSeed),
	})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(mod, nil)
	seededFiles := map[string]bool{
		"internal/journal/zz_seeded.go": true,
		"internal/server/zz_seeded.go":  true,
	}
	type want struct {
		file, check, path string
		line              int
	}
	wants := []want{
		{"internal/journal/zz_seeded.go", "wallclock", "", 6},
		{"internal/journal/zz_seeded.go", "wallclock", "journal.zzWhen → journal.zzHidden → time.Now", 10},
		{"internal/server/zz_seeded.go", "ctxflow", "server.zzHandle → core.Run → context.Background", 11},
	}
	matched := map[int]bool{}
	for _, f := range findings {
		if !seededFiles[f.File] {
			if strings.HasPrefix(f.File, "internal/") {
				t.Errorf("seeding leaked a finding into the real tree: %s", f)
			}
			continue
		}
		hit := false
		for i, w := range wants {
			if f.File == w.file && f.Check == w.check && f.Line == w.line && strings.Contains(f.Message, w.path) {
				matched[i] = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected finding in seeded file: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("seeded violation not detected: %s:%d [%s] path %q", w.file, w.line, w.check, w.path)
		}
	}
}
