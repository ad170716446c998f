package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/route"
)

// reworkNetOracle is the Stage-4 rework that the two-path cursor replaced:
// after every reconnection, kept or spliced, it enumerates the tree's
// two-paths again, scans them from the start for the first undone one,
// and asks keepsOwn afresh whenever the search returns the ripped
// two-path. Telemetry is left out.
func (s *state) reworkNetOracle(i int) error {
	n := s.c.Nets[i]
	ropt := s.p.RouteOpt
	ropt.Stage = s.stage
	route.RemoveUsage(s.g, s.routes[i])
	defer func() { route.AddUsage(s.g, s.routes[i]) }()
	s.done = s.done[:0]
	for {
		rt := s.routes[i]
		rt.TwoPathsInto(&s.paths)
		var pick []int
		var key uint64
		var at int
		for k := 0; k < s.paths.Len(); k++ {
			p := s.paths.Path(k)
			key = uint64(s.g.TileIndex(rt.Tile[p[0]]))<<32 | uint64(s.g.TileIndex(rt.Tile[p[len(p)-1]]))
			var seen bool
			if at, seen = slices.BinarySearch(s.done, key); !seen {
				pick = p
				break
			}
		}
		if pick == nil {
			return nil
		}
		s.done = slices.Insert(s.done, at, key)
		head := rt.Tile[pick[0]]
		tail := rt.Tile[pick[len(pick)-1]]
		blocked := s.ws.BlockedMask(s.g.NumTiles())
		for _, t := range rt.Tile {
			blocked[s.g.TileIndex(t)] = true
		}
		for _, v := range pick[1 : len(pick)-1] {
			blocked[s.g.TileIndex(rt.Tile[v])] = false
		}
		blocked[s.g.TileIndex(head)] = false
		blocked[s.g.TileIndex(tail)] = false
		s.walk = s.walk[:0]
		for x := len(pick) - 1; x >= 0; x-- {
			s.walk = append(s.walk, rt.Tile[pick[x]])
		}
		newPath, err := route.BufferAwarePath(s.g, tail, head, n.L, blocked, s.walk, ropt, s.ws)
		for _, t := range rt.Tile {
			blocked[s.g.TileIndex(t)] = false
		}
		if err != nil {
			continue
		}
		if ripped(rt, pick, newPath) && s.splice.keepsOwn(rt) {
			continue
		}
		nt := s.ws.TakeTree()
		if err := s.splice.splice(rt, pick, newPath, nt); err != nil {
			s.ws.Recycle(nt)
			return err
		}
		s.routes[i] = nt
		s.ws.Recycle(rt)
	}
}

// stateAfterStage3 runs Stages 1–3 on a fresh state, as execute does.
func stateAfterStage3(t *testing.T, c *netlist.Circuit, p Params) *state {
	t.Helper()
	s := newTestState(t, c, p)
	for num, f := range []func() error{s.stage2, s.stage3} {
		s.stage = num + 2
		if err := f(); err != nil {
			t.Fatal(err)
		}
		if err := s.refreshDelays(); err != nil {
			t.Fatal(err)
		}
	}
	s.stage = 4
	return s
}

// TestReworkNetMatchesOracle: Stage 4 with the cursor picks the same
// two-paths in the same order and leaves the same route, net by net, as
// the rescanning oracle — on the ten suite circuits at their coarse
// tilings and on hc7 at the paper's, whose Stage 4 splices a tree into
// one that keepsOwn rejects after an earlier tree of the same net passed.
func TestReworkNetMatchesOracle(t *testing.T) {
	coarse := map[string][2]int{
		"apte": {10, 11}, "xerox": {10, 10}, "hp": {10, 10},
		"ami33": {11, 10}, "ami49": {10, 10}, "playout": {11, 10},
		"ac3": {10, 10}, "xc5": {10, 10}, "hc7": {10, 10}, "a9c3": {10, 10},
	}
	type run struct {
		name string
		grid [2]int // zero: the paper's tiling
	}
	var runs []run
	for _, spec := range floorplan.Suite() {
		runs = append(runs, run{spec.Name, coarse[spec.Name]})
	}
	runs = append(runs, run{name: "hc7"})
	for _, r := range runs {
		spec, err := floorplan.BySuiteName(r.name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := floorplan.Generate(spec, floorplan.Options{GridW: r.grid[0], GridH: r.grid[1]})
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultParams()
		p.TargetStage1Avg = suiteStage1Avg[r.name]
		p.Workers = 1
		got, want := stateAfterStage3(t, c, p), stateAfterStage3(t, c, p)
		label := fmt.Sprintf("%s %dx%d", r.name, c.GridW, c.GridH)
		for _, i := range got.orderByDelay(false) {
			got.releaseNet(i)
			want.releaseNet(i)
			if err := got.reworkNet(i); err != nil {
				t.Fatalf("%s net %d: %v", label, i, err)
			}
			if err := want.reworkNetOracle(i); err != nil {
				t.Fatalf("%s net %d: oracle: %v", label, i, err)
			}
			g, w := got.routes[i], want.routes[i]
			if !slices.Equal(got.done, want.done) || !slices.Equal(g.Tile, w.Tile) ||
				!slices.Equal(g.Parent, w.Parent) || !slices.Equal(g.SinkNode, w.SinkNode) {
				t.Fatalf("%s net %d: picks or route differ from the oracle", label, i)
			}
			if err := got.assignNet(i); err != nil {
				t.Fatal(err)
			}
			if err := want.assignNet(i); err != nil {
				t.Fatal(err)
			}
		}
	}
}
