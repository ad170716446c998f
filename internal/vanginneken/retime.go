package vanginneken

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/obs"
	"repro/internal/tech"
)

// RetimeReport records the effect of re-buffering one net.
type RetimeReport struct {
	NetIndex    int
	BeforeMaxPs float64
	AfterMaxPs  float64
	OldBuffers  int
	NewBuffers  []delay.Placed
}

// RetimeCriticalNets re-buffers the k worst-delay nets of a completed
// RABID run with delay-optimal insertion over the buffer sites that remain
// free (plus the sites the net itself was using, which are released
// first). The run's tile graph buffer accounting is updated in place; the
// affected nets' length-rule assignments are superseded by the returned
// reports.
func RetimeCriticalNets(res *core.Result, k int, lib []tech.Gate) ([]RetimeReport, error) {
	if k < 1 {
		return nil, fmt.Errorf("vanginneken: k %d < 1", k)
	}
	eval, err := delay.NewEvaluator(res.Params.Tech, res.Circuit.TileUm)
	if err != nil {
		return nil, err
	}
	// Rank nets by their current max sink delay, each buffer priced as the
	// gate its assignment chose (as the run's own stage snapshots are).
	type ranked struct {
		idx int
		max float64
	}
	var order []ranked
	var ne core.NetEval
	for i, rt := range res.Routes {
		ds, err := ne.Delays(eval, res.Params.Library, rt, res.Assignments[i])
		if err != nil {
			return nil, err
		}
		m := 0.0
		for _, d := range ds {
			if d > m {
				m = d
			}
		}
		order = append(order, ranked{i, m})
	}
	sort.Slice(order, func(a, b int) bool { return order[a].max > order[b].max })
	if k > len(order) {
		k = len(order)
	}
	g := res.Graph
	o := res.Params.Observer
	var reports []RetimeReport
	for _, r := range order[:k] {
		i := r.idx
		rt := res.Routes[i]
		// Release the net's planned buffers; their sites become available
		// to the timing-driven pass.
		for _, b := range res.Assignments[i].Buffers {
			g.RemoveBuffer(g.TileIndex(rt.Tile[b.Node]))
		}
		cfg := Config{
			Tech:    res.Params.Tech,
			TileUm:  res.Circuit.TileUm,
			Library: lib,
			Allowed: func(v int) bool {
				ti := g.TileIndex(rt.Tile[v])
				return g.UsedSites(ti) < g.Sites(ti)
			},
		}
		var ist InsertStats
		t0 := obs.Now(o)
		if o != nil {
			cfg.Stats = &ist
		}
		sol, err := Insert(rt, cfg)
		if err != nil {
			return nil, fmt.Errorf("vanginneken: net %d: %w", i, err)
		}
		if o != nil {
			id := res.Circuit.Nets[i].ID
			obs.Emit(o, obs.Event{Kind: obs.KindCounter, Scope: "retime.candidates", Net: id, Value: float64(ist.Candidates)})
			obs.Emit(o, obs.Event{Kind: obs.KindCounter, Scope: "retime.pruned", Net: id, Value: float64(ist.Pruned)})
			obs.Emit(o, obs.Event{Kind: obs.KindSpanEnd, Scope: "net.retime", Net: id, Dur: obs.Since(o, t0)})
		}
		for _, p := range sol.Buffers {
			g.AddBuffer(g.TileIndex(rt.Tile[p.Buf.Node]))
		}
		reports = append(reports, RetimeReport{
			NetIndex:    i,
			BeforeMaxPs: r.max * 1e12,
			AfterMaxPs:  -sol.RootRAT * 1e12,
			OldBuffers:  len(res.Assignments[i].Buffers),
			NewBuffers:  sol.Buffers,
		})
	}
	return reports, nil
}
