// Package lint is rabidlint: a stdlib-only static-analysis suite that
// machine-checks the determinism and numeric-safety invariants this
// repository's results depend on. The pipeline's headline guarantees —
// bit-identical results for every Params.Workers value and byte-identical
// observer event streams — are properties of the source, not just of the
// tests: one unsorted map range in a result-affecting loop, one ungated
// wall-clock read, or one unchecked integer narrowing silently breaks
// reproducibility of the paper's tables. rabidlint walks every package of
// the module over go/parser + go/types and reports violations of six
// invariant classes (see checks.go); CI runs it on every PR.
//
// Sites that are provably safe for a reason the analyzer cannot see carry
// an annotation:
//
//	//rabid:allow <check> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory — an annotation without one is itself reported (check "allow")
// and suppresses nothing, so every suppression documents its argument.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	// Check is the check ID ("maprange", "wallclock", "globalrand",
	// "floateq", "narrowcast", "errdrop", or "allow" for a malformed
	// annotation).
	Check string `json:"check"`
	// File is the offending file, relative to the module root.
	File string `json:"file"`
	// Line and Col are 1-based source coordinates.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message explains the violation and the accepted remedies.
	Message string `json:"message"`
}

// Pos renders the finding's position as file:line:col.
func (f Finding) Pos() string { return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col) }

func (f Finding) String() string { return fmt.Sprintf("%s: [%s] %s", f.Pos(), f.Check, f.Message) }

// Checks lists every check ID in the suite, in report order. The first six
// are the intraprocedural checks; ctxflow and allocfree are the
// interprocedural layer (allocfree findings are produced only by the
// compiler-backed escape gate, EscapeGate / `rabidlint -escape`).
func Checks() []string {
	return []string{
		"maprange", "wallclock", "globalrand", "floateq", "narrowcast", "errdrop",
		"ctxflow", "allocfree",
	}
}

// resultAffecting names the packages (by final import-path element) whose
// iteration order reaches results: the maprange check applies only here.
// The telemetry and rendering layers may range freely — their maps feed
// aggregates or sorted output, not routing decisions.
var resultAffecting = map[string]bool{
	"core": true, "route": true, "bufferdp": true, "vanginneken": true,
	"mcf": true, "steiner": true, "spanning": true, "siteplan": true,
}

// clockExempt lists the final import-path elements of the packages allowed
// to read the wall clock. internal/obs owns the gated clock (obs.Now /
// obs.Since) that every instrumented site must go through; internal/server
// measures real request latency and deadline headroom at the service
// boundary, where wall time is the quantity being reported, not a
// determinism hazard (responses never embed it).
var clockExempt = map[string]bool{"obs": true, "server": true}

// Run lints the loaded module and returns all findings sorted by position.
// only restricts reporting to packages whose import path is in the set
// (nil/empty = all); the whole module is always loaded, since type
// information needs every dependency anyway.
func Run(mod *Module, only map[string]bool) []Finding {
	return RunChecks(mod, only, nil)
}

// RunChecks is Run with check selection: onlyChecks (nil/empty = all)
// restricts which checks run, validated IDs only (cmd/rabidlint rejects
// unknown names before calling in). Malformed //rabid:allow annotations are
// reported regardless of the selection — a broken suppression must never
// ride a narrowed run into CI green. The allocfree check is not run here
// (it needs the compiler; see EscapeGate).
func RunChecks(mod *Module, onlyPkgs, onlyChecks map[string]bool) []Finding {
	a := newAnalysis(mod, onlyPkgs, onlyChecks)
	for _, pkg := range mod.Pkgs {
		a.lintPackage(pkg)
	}
	a.checkTransitiveTaints()
	if a.enabled("ctxflow") {
		a.checkCtxFlow()
	}
	return sortFindings(a.findings)
}

// SortFindings orders findings by position then check ID — the order every
// rabidlint surface (text, -json, -sarif) emits. cmd/rabidlint uses it to
// merge the escape gate's findings into the static run's.
func SortFindings(fs []Finding) []Finding { return sortFindings(fs) }

// sortFindings orders findings by position then check ID.
func sortFindings(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Col != fs[j].Col {
			return fs[i].Col < fs[j].Col
		}
		return fs[i].Check < fs[j].Check
	})
	return fs
}

// analysis carries the module-wide state of one Run: the call graph, every
// package's //rabid:allow annotations, and the accumulated findings. The
// interprocedural checks need allows and the file→package mapping across
// package boundaries, which the old per-package pass could not see.
type analysis struct {
	mod        *Module
	cg         *CallGraph
	allows     allowSet
	pkgByFile  map[string]*Package
	onlyPkgs   map[string]bool
	onlyChecks map[string]bool
	findings   []Finding
}

func newAnalysis(mod *Module, onlyPkgs, onlyChecks map[string]bool) *analysis {
	a := &analysis{
		mod: mod, allows: allowSet{}, pkgByFile: map[string]*Package{},
		onlyPkgs: onlyPkgs, onlyChecks: onlyChecks,
	}
	for _, pkg := range mod.Pkgs {
		allows, fs := collectAllows(mod, pkg)
		for k := range allows {
			a.allows[k] = true
		}
		if a.pkgSelected(pkg) {
			a.findings = append(a.findings, fs...)
		}
		for _, f := range pkg.Files {
			a.pkgByFile[mod.relFile(mod.Fset.Position(f.Pos()).Filename)] = pkg
		}
	}
	a.cg = BuildCallGraph(mod)
	return a
}

func (a *analysis) enabled(check string) bool {
	return len(a.onlyChecks) == 0 || a.onlyChecks[check]
}

func (a *analysis) pkgSelected(pkg *Package) bool {
	return len(a.onlyPkgs) == 0 || a.onlyPkgs[pkg.ImportPath]
}

// suppressed reports whether a //rabid:allow covers pos for check.
func (a *analysis) suppressed(check string, pos token.Pos) bool {
	p := a.mod.Fset.Position(pos)
	return a.allows.suppressed(check, a.mod.relFile(p.Filename), p.Line)
}

// report files one finding unless an annotation suppresses it or its
// package is outside the selection.
func (a *analysis) report(check string, pos token.Pos, msg string) {
	position := a.mod.Fset.Position(pos)
	file := a.mod.relFile(position.Filename)
	if a.allows.suppressed(check, file, position.Line) {
		return
	}
	if pkg := a.pkgByFile[file]; pkg != nil && !a.pkgSelected(pkg) {
		return
	}
	a.findings = append(a.findings, Finding{
		Check: check, File: file, Line: position.Line, Col: position.Column, Message: msg,
	})
}

// lintPackage runs the intraprocedural checks over one package.
func (a *analysis) lintPackage(pkg *Package) {
	if !a.pkgSelected(pkg) {
		return
	}
	p := &pass{mod: a.mod, pkg: pkg, report: a.report}
	if a.enabled("maprange") {
		checkMapRange(p)
	}
	if a.enabled("wallclock") {
		checkWallClock(p)
	}
	if a.enabled("globalrand") {
		checkGlobalRand(p)
	}
	if a.enabled("floateq") {
		checkFloatEq(p)
	}
	if a.enabled("narrowcast") {
		checkNarrowCast(p)
	}
	if a.enabled("errdrop") {
		checkErrDrop(p)
	}
}

// pass carries one package's state through the intraprocedural checks.
type pass struct {
	mod    *Module
	pkg    *Package
	report func(check string, pos token.Pos, msg string)
}

// pathElem returns the final element of the package's import path.
func (p *pass) pathElem() string { return pkgElem(p.pkg) }

// allowSet indexes //rabid:allow annotations by (check, file, line). An
// annotation covers its own line and the line below it, so it can sit as a
// trailing comment or on its own line above the site.
type allowSet map[string]bool

func (a allowSet) key(check, file string, line int) string {
	return fmt.Sprintf("%s\x00%s\x00%d", check, file, line)
}

func (a allowSet) suppressed(check, file string, line int) bool {
	return a[a.key(check, file, line)] || a[a.key(check, file, line-1)]
}

const allowPrefix = "//rabid:allow"

// collectAllows parses the package's annotations. Malformed annotations —
// no check named, a check outside the catalog, or a missing reason — are
// returned as findings with check ID "allow" and suppress nothing.
func collectAllows(mod *Module, pkg *Package) (allowSet, []Finding) {
	known := map[string]bool{}
	for _, c := range Checks() {
		known[c] = true
	}
	allows := allowSet{}
	var fs []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				position := mod.Fset.Position(c.Pos())
				file := mod.relFile(position.Filename)
				bad := func(msg string) {
					fs = append(fs, Finding{
						Check: "allow", File: file, Line: position.Line,
						Col: position.Column, Message: msg,
					})
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //rabid:allowfoo — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad("annotation names no check: want //rabid:allow <check> <reason>")
					continue
				}
				if !known[fields[0]] {
					bad(fmt.Sprintf("annotation names unknown check %q (catalog: %s)",
						fields[0], strings.Join(Checks(), ", ")))
					continue
				}
				if len(fields) < 2 {
					bad(fmt.Sprintf("annotation for %q has no reason: suppression requires a justification", fields[0]))
					continue
				}
				allows[allows.key(fields[0], file, position.Line)] = true
			}
		}
	}
	return allows, fs
}
