// Command rabidlint runs the repository's static-analysis suite: the six
// intraprocedural determinism and numeric-safety checks, the
// interprocedural call-graph layer (transitive wallclock/globalrand/
// maprange taint, ctxflow), and — with -escape — the compiler-backed
// allocfree gate (see internal/lint and DESIGN.md "Static analysis").
//
// Usage:
//
//	rabidlint [-json] [-sarif file] [-only checks] [-escape] [-workers n] [packages]
//
// With no arguments (or "./...") the whole module is linted. Package
// arguments restrict *reporting*: "./internal/route" lints one package,
// "./internal/route/..." a subtree (the whole module is always loaded,
// since type information needs every dependency).
//
// -only takes a comma-separated subset of the check catalog
// (rabidlint -only wallclock,ctxflow); unknown names are a usage error
// listing the valid IDs. -escape additionally runs the allocfree escape
// gate over the hot-set manifest (internal/lint/hotset.txt; override with
// -hotset). -sarif writes the findings as SARIF 2.1.0 to the named file in
// addition to the stdout report. -workers caps the parse worker count
// (findings are identical at every value; <1 = one per CPU).
//
// Exit status: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	sarifOut := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to `file`")
	onlyChecks := flag.String("only", "", "run only these `checks` (comma-separated; see -help for catalog)")
	escape := flag.Bool("escape", false, "also run the compiler-backed allocfree escape gate")
	hotset := flag.String("hotset", "", "hot-set manifest for -escape (default: internal/lint/hotset.txt under the module root)")
	workers := flag.Int("workers", 0, "parse worker count (<1 = one per CPU; findings are identical at every value)")
	root := flag.String("C", ".", "module root directory to lint")
	flag.Parse()

	checks, err := selectChecks(*onlyChecks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rabidlint:", err)
		os.Exit(2)
	}
	mod, err := lint.LoadWorkers(*root, nil, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rabidlint:", err)
		os.Exit(2)
	}
	only, err := selectPackages(mod, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rabidlint:", err)
		os.Exit(2)
	}
	findings := lint.RunChecks(mod, only, checks)
	if *escape && (len(checks) == 0 || checks["allocfree"]) {
		efs, err := lint.EscapeGate(mod, *hotset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rabidlint:", err)
			os.Exit(2)
		}
		findings = lint.SortFindings(append(findings, efs...))
	}

	if *sarifOut != "" {
		f, err := os.Create(*sarifOut)
		if err == nil {
			err = lint.WriteSARIF(f, findings)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rabidlint:", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		// Always an array (never null) so downstream tooling can index
		// unconditionally.
		if findings == nil {
			findings = []lint.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "rabidlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "rabidlint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// selectChecks parses the -only flag against the check catalog. nil means
// "every check"; an unknown name is a usage error naming the valid IDs.
func selectChecks(arg string) (map[string]bool, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, nil
	}
	valid := map[string]bool{}
	for _, c := range lint.Checks() {
		valid[c] = true
	}
	sel := map[string]bool{}
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !valid[name] {
			return nil, fmt.Errorf("unknown check %q in -only (valid: %s)",
				name, strings.Join(lint.Checks(), ", "))
		}
		sel[name] = true
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("-only names no checks (valid: %s)", strings.Join(lint.Checks(), ", "))
	}
	return sel, nil
}

// selectPackages maps CLI patterns to a set of module import paths. nil
// means "everything".
func selectPackages(mod *lint.Module, args []string) (map[string]bool, error) {
	if len(args) == 0 {
		return nil, nil
	}
	only := map[string]bool{}
	for _, arg := range args {
		if arg == "./..." || arg == "..." || arg == "all" {
			return nil, nil
		}
		rec := false
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			rec, arg = true, rest
		}
		rel := filepath.ToSlash(filepath.Clean(arg))
		ip := mod.Path
		if rel != "." {
			ip = mod.Path + "/" + strings.TrimPrefix(rel, "./")
		}
		matched := false
		for _, pkg := range mod.Pkgs {
			if pkg.ImportPath == ip || (rec && strings.HasPrefix(pkg.ImportPath, ip+"/")) {
				only[pkg.ImportPath] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matches no package in %s", arg, mod.Path)
		}
	}
	return only, nil
}
