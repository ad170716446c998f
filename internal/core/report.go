package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/delay"
)

// Report is the machine-readable summary of a completed run, suitable for
// archiving next to a floorplan candidate or diffing across parameter
// sweeps.
type Report struct {
	Circuit  string        `json:"circuit"`
	Nets     int           `json:"nets"`
	Capacity int           `json:"capacity"`
	Stages   []StageReport `json:"stages"`
	PerNet   []NetReport   `json:"per_net"`
}

// StageReport mirrors StageStats with JSON-friendly field types.
type StageReport struct {
	Stage      int     `json:"stage"`
	WireMax    float64 `json:"wire_congestion_max"`
	WireAvg    float64 `json:"wire_congestion_avg"`
	Overflows  int     `json:"overflows"`
	BufMax     float64 `json:"buffer_density_max"`
	BufAvg     float64 `json:"buffer_density_avg"`
	Buffers    int     `json:"buffers"`
	Fails      int     `json:"fails"`
	WirelenMm  float64 `json:"wirelength_mm"`
	MaxDelayPs float64 `json:"max_delay_ps"`
	AvgDelayPs float64 `json:"avg_delay_ps"`
	CPUSeconds float64 `json:"cpu_seconds"`
}

// NetReport summarizes one net's final plan.
type NetReport struct {
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	Sinks      int     `json:"sinks"`
	RouteTiles int     `json:"route_tiles"`
	Buffers    int     `json:"buffers"`
	Feasible   bool    `json:"feasible"`
	Violations int     `json:"violations"`
	MaxDelayPs float64 `json:"max_delay_ps"`
}

// Report builds the summary from a completed run.
func (r *Result) Report() (*Report, error) {
	rep := &Report{
		Circuit:  r.Circuit.Name,
		Nets:     len(r.Circuit.Nets),
		Capacity: r.Capacity,
	}
	// Grow keeps an empty list nil, so it still encodes as null.
	rep.Stages = slices.Grow(rep.Stages, len(r.Stages))
	rep.PerNet = slices.Grow(rep.PerNet, len(r.Circuit.Nets))
	for _, s := range r.Stages {
		rep.Stages = append(rep.Stages, StageReport{
			Stage:      s.Stage,
			WireMax:    s.WireMax,
			WireAvg:    s.WireAvg,
			Overflows:  s.Overflows,
			BufMax:     s.BufMax,
			BufAvg:     s.BufAvg,
			Buffers:    s.Buffers,
			Fails:      s.Fails,
			WirelenMm:  s.WirelenMm,
			MaxDelayPs: s.MaxDelayPs,
			AvgDelayPs: s.AvgDelayPs,
			CPUSeconds: s.CPU.Seconds(),
		})
	}
	eval, err := delay.NewEvaluator(r.Params.Tech, r.Circuit.TileUm)
	if err != nil {
		return nil, err
	}
	// Each net is priced with the gates its assignment chose, as the final
	// stage's delay columns are, and on one scratch reused across nets.
	var ne NetEval
	for i, n := range r.Circuit.Nets {
		a := r.Assignments[i]
		nr := NetReport{
			ID:         n.ID,
			Name:       n.Name,
			Sinks:      len(n.Sinks),
			RouteTiles: r.Routes[i].NumNodes(),
			Buffers:    len(a.Buffers),
			Feasible:   a.Feasible(),
			Violations: a.Violations,
		}
		if ds, err := ne.Delays(eval, r.Params.Library, r.Routes[i], a); err == nil {
			for _, d := range ds {
				if ps := d * 1e12; ps > nr.MaxDelayPs {
					nr.MaxDelayPs = ps
				}
			}
		}
		rep.PerNet = append(rep.PerNet, nr)
	}
	return rep, nil
}

// WriteJSON serializes the report with indentation.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("core: encode report: %w", err)
	}
	return nil
}

// ReadReport deserializes a report.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("core: decode report: %w", err)
	}
	return &rep, nil
}
