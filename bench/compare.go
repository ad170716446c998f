package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// side summarizes one metric of one workload on one side of a comparison.
type side struct{ med, q1, q3 float64 }

// compare implements "bench compare A B". Each side is a results file
// written with --out, or a comma-separated list of them. With one file the
// quartiles are those the run measured across its own sub-windows; with
// several they are taken across the runs' values.
func compare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare A.json[,A2.json...] B.json[,B2.json...]")
	}
	a, order, err := loadSide(args[0])
	if err != nil {
		return err
	}
	b, _, err := loadSide(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-17s %11s %11s %11s %11s %11s %11s %8s %6s %s\n",
		"workload", "metric", "A", "A_q1", "A_q3", "B", "B_q1", "B_q3", "delta", "bound", "verdict")
	for _, wl := range order {
		for _, m := range endToEnd {
			sa, okA := a[wl][m.Name]
			sb, okB := b[wl][m.Name]
			if !okA || !okB {
				continue
			}
			delta, v := verdict(m, sa, sb)
			fmt.Fprintf(w, "%-14s %-17s %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g %+7.2f%% %5.0f%% %s\n",
				wl, m.Name, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3, 100*delta, 100*m.Bound, v)
		}
	}
	return nil
}

// verdict returns B's change relative to A and one of "ok", "worse" or
// "unresolved" (either side's quartile spread exceeds the bound, so a
// change within it cannot be told from noise).
func verdict(m metric, a, b side) (float64, string) {
	delta := (b.med - a.med) / a.med
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	spread := math.Max((a.q3-a.q1)/math.Abs(a.med), (b.q3-b.q1)/math.Abs(b.med))
	switch {
	case math.IsNaN(delta) || math.IsInf(delta, 0) || math.IsNaN(spread) || spread > m.Bound:
		return delta, "unresolved"
	case worse > m.Bound:
		return delta, "worse"
	}
	return delta, "ok"
}

// loadSide reads one side's results files and returns its summaries by
// workload and metric, with the workloads in first-seen order.
func loadSide(list string) (map[string]map[string]side, []string, error) {
	vals := map[string]map[string][]value{}
	var order []string
	files := strings.Split(list, ",")
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		var rs []result
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rs {
			if r.Trace {
				continue
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]value{}
				order = append(order, r.Workload)
			}
			for _, v := range r.Metrics {
				vals[r.Workload][v.Name] = append(vals[r.Workload][v.Name], v)
			}
		}
	}
	out := map[string]map[string]side{}
	for wl, ms := range vals {
		out[wl] = map[string]side{}
		for name, vs := range ms {
			if len(vs) == 1 {
				out[wl][name] = side{vs[0].Value, vs[0].Q1, vs[0].Q3}
				continue
			}
			xs := make([]float64, len(vs))
			for i, v := range vs {
				xs[i] = v.Value
			}
			out[wl][name] = side{median(xs), quantile(xs, 0.25), quantile(xs, 0.75)}
		}
	}
	return out, order, nil
}
