package lint

import (
	"encoding/json"
	"io"
)

// sarif.go serializes findings as SARIF 2.1.0, the interchange format code
// hosts ingest for inline PR annotations. The writer emits the minimal
// conforming subset: one run, one rule per check ID in the catalog (so
// every result's ruleIndex resolves even when a check found nothing), one
// result per finding with a physical location anchored at the module root
// (%SRCROOT%). Findings are already sorted by position; the output is
// byte-identical for identical findings.

// ruleHelp maps each check ID to the one-line description embedded in the
// SARIF rule metadata.
var ruleHelp = map[string]string{
	"maprange":   "map iteration order must not reach results: collect and sort keys",
	"wallclock":  "wall-clock reads must go through the gated clock (obs.Now/obs.Since)",
	"globalrand": "randomness must come from a seeded *rand.Rand, not the global source",
	"floateq":    "floating-point equality must be tolerance-based or provably exact",
	"narrowcast": "integer narrowing must be range-checked",
	"errdrop":    "errors must be handled or explicitly discarded with a reason",
	"ctxflow":    "a caller's context must flow to callees, not be swapped for a fresh root",
	"allocfree":  "hot-set functions must not heap-allocate (compiler escape analysis)",
	"allow":      "//rabid:allow annotations must name a known check and carry a reason",
}

// sarifLog mirrors the SARIF 2.1.0 envelope.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF serializes findings as a SARIF 2.1.0 log. Every catalog check
// (plus the synthetic "allow" rule) appears in the rule table regardless of
// whether it fired, so ruleIndex references are stable across runs.
func WriteSARIF(w io.Writer, findings []Finding) error {
	ruleIDs := append(Checks(), "allow")
	ruleIndex := map[string]int{}
	rules := make([]sarifRule, len(ruleIDs))
	for i, id := range ruleIDs {
		ruleIndex[id] = i
		rules[i] = sarifRule{ID: id, ShortDescription: sarifMessage{Text: ruleHelp[id]}}
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:    f.Check,
			RuleIndex: ruleIndex[f.Check],
			Level:     "error",
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: f.File, URIBaseID: "%SRCROOT%"},
				Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
			}}},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "rabidlint", Rules: rules}},
			Results: results,
		}},
	})
}
