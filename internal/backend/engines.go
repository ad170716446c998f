// The three built-in planning engines. Each is a thin adapter: the
// pipelines themselves live in internal/core (they share stage-1 graph
// construction, the Stage-3 DP driver, delay evaluation, and the Table II
// snapshot accounting), and this package owns naming, normalization, and
// dispatch.
package backend

import (
	"context"

	"repro/internal/core"
	"repro/internal/netlist"
)

// Registered engine names.
const (
	NameRabid    = "rabid"
	NameRabidLib = "rabid+lib"
	NameMCF      = "mcf"
)

func init() {
	// "rabid" is the paper's four-stage pipeline with the single planning
	// buffer — the reference engine whose output is pinned byte-for-byte by
	// the golden route fixtures.
	Register(pipelineEngine{NameRabid,
		"RABID four-stage pipeline (Steiner, rip-up/reroute, length-based buffer DP, post-processing)"})
	// "rabid+lib" is the same pipeline with the multi-type Stage-3 DP: per
	// buffer, a gate is chosen from Params.Library (drive-scaled length
	// constraints, area-scaled site costs, inverter polarity tracking).
	// Normalize gives it the default library; the pipeline switches DPs on
	// Params.Library alone.
	Register(pipelineEngine{NameRabidLib,
		"RABID pipeline with a buffer library: multi-type DP over sizes and inverters (Li & Shi)"})
	Register(mcfEngine{})
}

// pipelineEngine adapts the RABID pipeline (core.RunContext). The rabid
// and rabid+lib engines are two registrations of it that differ only in
// name and description.
type pipelineEngine struct{ name, desc string }

func (e pipelineEngine) Name() string     { return e.name }
func (e pipelineEngine) Describe() string { return e.desc }
func (pipelineEngine) Plan(ctx context.Context, c *netlist.Circuit, p core.Params) (*core.Result, error) {
	return core.RunContext(ctx, c, p)
}

// mcfEngine is the multicommodity-flow buffered-routing engine.
type mcfEngine struct{}

func (mcfEngine) Name() string { return NameMCF }
func (mcfEngine) Describe() string {
	return "multicommodity-flow buffered routing: fractional relaxation, seeded rounding, buffer DP (Albrecht et al.)"
}
func (mcfEngine) Plan(ctx context.Context, c *netlist.Circuit, p core.Params) (*core.Result, error) {
	return core.RunMCFContext(ctx, c, p)
}
