// Package backend is the planning-engine subsystem: a registry of named
// engines that all satisfy one contract — Plan(ctx, circuit, params) →
// result + per-stage stats — so the facade, the CLIs, and the planning
// service select an engine by name instead of hard-coding the rabid
// pipeline. Three engines register at init:
//
//   - "rabid":     the paper's four-stage pipeline (core.RunContext),
//     single planning buffer.
//   - "rabid+lib": the same pipeline with the Stage-3 DP generalized to a
//     buffer library (sizes and inverting variants with polarity tracking,
//     after Li & Shi); an empty Params.Library defaults to
//     tech.DefaultPlanningLibrary018.
//   - "mcf":       multicommodity-flow buffered routing (core.RunMCFContext):
//     fractional relaxation with site-aware lengths and approximate dual
//     updates, deterministic seeded rounding, greedy repair, then the
//     length-based buffer DP.
//
// Engine identity is part of a plan's content address (see internal/cache):
// Normalize canonicalizes Params before any key is derived, so "" and
// "rabid" share cache entries while distinct engines never alias.
package backend

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mcf"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// Engine is one planning backend. Implementations must be deterministic:
// identical (circuit, params) inputs produce byte-identical results at
// every Params.Workers value.
type Engine interface {
	// Name is the registry key ("rabid", "rabid+lib", "mcf").
	Name() string
	// Describe is a one-line human summary for CLI listings.
	Describe() string
	// Plan runs the engine. Params arrive normalized (see Normalize): the
	// Backend field names this engine and the Library field is consistent
	// with it.
	Plan(ctx context.Context, c *netlist.Circuit, p core.Params) (*core.Result, error)
}

// DefaultName is the engine an empty Params.Backend resolves to.
const DefaultName = "rabid"

var registry = map[string]Engine{}

// Register adds an engine to the registry. It panics on a duplicate or
// empty name: registration happens at init, where a conflict is a
// programming error, not a runtime condition.
func Register(e Engine) {
	name := e.Name()
	if name == "" {
		panic("backend: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: duplicate engine %q", name))
	}
	registry[name] = e
}

// Lookup resolves an engine by name; "" resolves to DefaultName.
func Lookup(name string) (Engine, bool) {
	if name == "" {
		name = DefaultName
	}
	e, ok := registry[name]
	return e, ok
}

// Names returns the registered engine names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry { //rabid:allow maprange sorted immediately below; iteration order never escapes
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Normalize canonicalizes p and validates it against the registry,
// returning the Params every downstream consumer — the engine itself and
// the cache-key derivation — must use:
//
//   - Backend "" becomes DefaultName, so the empty and explicit spellings
//     of the default engine share one content address;
//   - the engine-independent rules are Params.Validate's, run before any
//     field is rewritten, so an out-of-domain value is a 400 on every
//     engine, in a field the engine ignores too;
//   - "rabid+lib" with an empty Library gets tech.DefaultPlanningLibrary018,
//     so the default library is spelled out in the key and a future default
//     change cannot silently alias old cache entries;
//   - the per-engine rules: "rabid" and "mcf" reject a non-empty Library
//     (they run the single-type DP), and every engine but "mcf" rejects
//     non-zero MCFPhases or MCFEpsilon;
//   - every field the engine ignores is reset to its core.DefaultParams
//     value, so a request that differs from the default only there shares
//     the default's content address instead of minting a second key for
//     the same bytes. Under "mcf" these are RouteOpt.Alpha (its router
//     runs at alpha 1), MaxRipupPasses and SkipStage4 (it has no rip-up
//     and no Stage 4); on every engine, TargetStage1Avg once Capacity is
//     set (the target only calibrates a zero capacity);
//   - a default spelled out is folded to the spelling the default request
//     keys under, for the same reason: TargetStage1Avg 0 (which Stage 1
//     reads as core.DefaultTargetStage1Avg) becomes that target, and under
//     "mcf" MCFPhases mcf.DefaultPhases and MCFEpsilon mcf.DefaultEpsilon
//     become 0 (which the engine reads as those defaults).
//
// Normalize must run before core.PlanKey / cache admission; the server and
// facade both do.
func Normalize(p core.Params) (core.Params, error) {
	if p.Backend == "" {
		p.Backend = DefaultName
	}
	if _, ok := registry[p.Backend]; !ok {
		return p, fmt.Errorf("backend: unknown engine %q (have %v)", p.Backend, Names())
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	if p.Backend == NameRabidLib {
		if len(p.Library) == 0 {
			p.Library = tech.DefaultPlanningLibrary018()
		}
	} else if len(p.Library) > 0 {
		return p, fmt.Errorf("backend: engine %q does not take a buffer library (use %q)", p.Backend, NameRabidLib)
	}
	def := core.DefaultParams()
	if p.Backend == NameMCF {
		p.RouteOpt.Alpha, p.MaxRipupPasses, p.SkipStage4 = def.RouteOpt.Alpha, def.MaxRipupPasses, def.SkipStage4
		if p.MCFPhases == mcf.DefaultPhases {
			p.MCFPhases = 0
		}
		if p.MCFEpsilon == mcf.DefaultEpsilon { //rabid:allow floateq only the exact default spelled out is the default's request
			p.MCFEpsilon = 0
		}
	} else if p.MCFPhases != 0 || p.MCFEpsilon != 0 {
		return p, fmt.Errorf("backend: engine %q does not take mcf phases or epsilon (use %q)", p.Backend, NameMCF)
	}
	if p.Capacity > 0 || p.TargetStage1Avg == 0 {
		p.TargetStage1Avg = def.TargetStage1Avg
	}
	return p, nil
}

// Plan normalizes p, resolves the engine, and runs it.
func Plan(ctx context.Context, c *netlist.Circuit, p core.Params) (*core.Result, error) {
	p, err := Normalize(p)
	if err != nil {
		return nil, err
	}
	e, ok := Lookup(p.Backend)
	if !ok {
		return nil, fmt.Errorf("backend: unknown engine %q", p.Backend)
	}
	return e.Plan(ctx, c, p)
}
