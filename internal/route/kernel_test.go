package route

import (
	"container/heap"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/tile"
)

// treesEqual and cloneRoutes live in workspace_test.go / route_test.go.

// TestDialByteIdenticalRipup pins the tentpole claim at the unit level:
// full multi-pass rip-up under the dial kernel produces exactly the trees
// and final congestion state the heap kernel produces.
func TestDialByteIdenticalRipup(t *testing.T) {
	gh, nets, routesH, order := benchWorkload(t)
	gd := gh.Clone()
	routesD := cloneRoutes(routesH)

	optH := DefaultOptions()
	optD := DefaultOptions()
	optD.Kernel = KernelDial

	for pass := 0; pass < 3; pass++ {
		if _, err := RipupPass(gh, nets, routesH, order, optH, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := RipupPass(gd, nets, routesD, order, optD, nil); err != nil {
			t.Fatal(err)
		}
		for i := range routesH {
			if !treesEqual(routesH[i], routesD[i]) {
				t.Fatalf("pass %d: net %d: dial tree differs from heap tree", pass, i)
			}
		}
	}
	for e := 0; e < gh.NumEdges(); e++ {
		if gh.Usage(e) != gd.Usage(e) {
			t.Fatalf("edge %d: usage heap=%d dial=%d", e, gh.Usage(e), gd.Usage(e))
		}
	}
}

// TestDialByteIdenticalRandom fuzzes the byte-identity over random grids,
// capacities, and nets — including capacity-starved instances where
// penalty-priced keys exercise the far heap.
func TestDialByteIdenticalRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		w, h := 3+r.Intn(14), 3+r.Intn(14)
		g, err := tile.New(w, h, nil, 1+r.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		// Random non-uniform capacities, some blocked edges.
		for e := 0; e < g.NumEdges(); e++ {
			if r.Intn(4) == 0 {
				g.SetCapacity(e, r.Intn(3))
			}
		}
		// Random pre-existing congestion.
		for e := 0; e < g.NumEdges(); e++ {
			for k := r.Intn(3); k > 0; k-- {
				g.AddWire(e)
			}
		}
		n := &netlist.Net{ID: trial, Name: "f", L: 4,
			Source: netlist.Pin{Tile: geom.Pt{X: r.Intn(w), Y: r.Intn(h)}}}
		for k := 0; k <= r.Intn(4); k++ {
			n.Sinks = append(n.Sinks, netlist.Pin{Tile: geom.Pt{X: r.Intn(w), Y: r.Intn(h)}})
		}
		optH := DefaultOptions()
		optD := DefaultOptions()
		optD.Kernel = KernelDial
		rtH, errH := Reroute(g, n, optH, nil)
		rtD, errD := Reroute(g, n, optD, nil)
		if (errH == nil) != (errD == nil) {
			t.Fatalf("trial %d: heap err=%v dial err=%v", trial, errH, errD)
		}
		if errH != nil {
			continue
		}
		if !treesEqual(rtH, rtD) {
			t.Fatalf("trial %d: dial tree differs from heap tree", trial)
		}
	}
}

// rerouteSinkKeys routes net n on a private clone and returns the final
// per-sink selection keys (the wavefront's objective labels) plus the
// wavefront pop count.
func rerouteSinkKeys(t *testing.T, g *tile.Graph, n *netlist.Net, opt Options) ([]float64, float64) {
	t.Helper()
	m := obs.NewMetrics()
	opt.Obs = m
	ws := NewWorkspace()
	if _, err := Reroute(g.Clone(), n, opt, ws); err != nil {
		t.Fatal(err)
	}
	keys := make([]float64, len(n.Sinks))
	for i, s := range n.Sinks {
		keys[i] = ws.key[g.TileIndex(s.Tile)]
	}
	return keys, m.Counter("route.pops")
}

// TestAstarCostIdenticalReroute asserts the astar kernel's Reroute
// contract on the congested bench workload, at both pipeline alphas:
//
//   - alpha = 1 (pure shortest paths, the cost-distance Steiner mode's
//     Stage 2): the heuristic is consistent, so A* genuinely reorders pops
//     — strictly fewer in aggregate — yet every per-sink selection key
//     matches the heap kernel exactly.
//   - alpha = 0.4 (the PD default): the kernel falls back to heap order
//     (the PD key is non-monotone, see kernel.go), so even the trees are
//     byte-identical.
func TestAstarCostIdenticalReroute(t *testing.T) {
	g, nets, routes, _ := benchWorkload(t)
	for _, alpha := range []float64{1, 0.4} {
		popsH, popsA := 0.0, 0.0
		optH := DefaultOptions()
		optH.Alpha = alpha
		optA := optH
		optA.Kernel = KernelAstar
		for i, n := range nets {
			RemoveUsage(g, routes[i])
			kh, ph := rerouteSinkKeys(t, g, n, optH)
			ka, pa := rerouteSinkKeys(t, g, n, optA)
			for s := range kh {
				if kh[s] != ka[s] {
					t.Fatalf("alpha=%v net %d sink %d: key heap=%v astar=%v", alpha, n.ID, s, kh[s], ka[s])
				}
			}
			popsH += ph
			popsA += pa
			AddUsage(g, routes[i])
		}
		if alpha == 1 && popsA >= popsH {
			t.Fatalf("alpha=1: astar pops %v not below heap pops %v (heuristic not engaging)", popsA, popsH)
		}
		if alpha != 1 && popsA != popsH {
			t.Fatalf("alpha=%v: astar pops %v != heap pops %v (fallback must reproduce heap exactly)", alpha, popsA, popsH)
		}
	}
}

// TestAstarCostIdenticalSuite extends the cost-identity contract from the
// synthetic bench workload to the ten real suite circuits at their coarse
// test tilings: per net, at alpha = 1, the astar kernel's per-sink
// selection keys equal the heap kernel's exactly, and per circuit the
// astar wavefront pops strictly fewer states in aggregate.
func TestAstarCostIdenticalSuite(t *testing.T) {
	grids := map[string][2]int{
		"apte": {10, 11}, "xerox": {10, 10}, "hp": {10, 10},
		"ami33": {11, 10}, "ami49": {10, 10}, "playout": {11, 10},
		"ac3": {10, 10}, "xc5": {10, 10}, "hc7": {10, 10}, "a9c3": {10, 10},
	}
	for _, name := range []string{"apte", "xerox", "hp", "ami33", "ami49", "playout", "ac3", "xc5", "hc7", "a9c3"} {
		spec, err := floorplan.BySuiteName(name)
		if err != nil {
			t.Fatal(err)
		}
		g2 := grids[name]
		c, err := floorplan.Generate(spec, floorplan.Options{GridW: g2[0], GridH: g2[1]})
		if err != nil {
			t.Fatal(err)
		}
		g, err := tile.New(c.GridW, c.GridH, c.BufferSites, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Seed realistic congestion: route every net once and register it.
		routes := make([]*rtree.Tree, len(c.Nets))
		for i, n := range c.Nets {
			rt, err := Reroute(g, n, DefaultOptions(), nil)
			if err != nil {
				t.Fatal(err)
			}
			routes[i] = rt
			AddUsage(g, rt)
		}
		optH := DefaultOptions()
		optH.Alpha = 1
		optA := optH
		optA.Kernel = KernelAstar
		popsH, popsA := 0.0, 0.0
		for i, n := range c.Nets {
			RemoveUsage(g, routes[i])
			kh, ph := rerouteSinkKeys(t, g, n, optH)
			ka, pa := rerouteSinkKeys(t, g, n, optA)
			for s := range kh {
				if kh[s] != ka[s] {
					t.Fatalf("%s net %d sink %d: key heap=%v astar=%v", name, n.ID, s, kh[s], ka[s])
				}
			}
			popsH += ph
			popsA += pa
			AddUsage(g, routes[i])
		}
		if popsA >= popsH {
			t.Errorf("%s: astar pops %v not below heap pops %v", name, popsA, popsH)
		}
	}
}

// bapCost returns BufferAwarePath's optimal reconnection cost by reading
// the reached head states off the workspace after the call.
func bapCost(t *testing.T, g *tile.Graph, tail, head geom.Pt, L int, opt Options) float64 {
	t.Helper()
	ws := NewWorkspace()
	if _, err := BufferAwarePath(g, tail, head, L, nil, nil, opt, ws); err != nil {
		t.Fatal(err)
	}
	base := g.TileIndex(head) * L
	best := math.Inf(1)
	for j := 0; j < L; j++ {
		s := base + j
		if ws.sStamp[s] == ws.epoch && ws.sDone[s] && ws.sDist[s] < best {
			best = ws.sDist[s]
		}
	}
	return best
}

// TestAstarCostIdenticalPath asserts the provable BufferAwarePath contract:
// the astar kernel's reconnection cost equals the heap kernel's on a
// congested instance (the search is pure Dijkstra and the heuristic is
// consistent, so the first head pop is cost-optimal in both).
func TestAstarCostIdenticalPath(t *testing.T) {
	g, _, _, _ := benchWorkload(t)
	optH := DefaultOptions()
	optA := DefaultOptions()
	optA.Kernel = KernelAstar
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		tail := geom.Pt{X: r.Intn(32), Y: r.Intn(32)}
		head := geom.Pt{X: r.Intn(32), Y: r.Intn(32)}
		if tail == head {
			continue
		}
		ch := bapCost(t, g, tail, head, 6, optH)
		ca := bapCost(t, g, tail, head, 6, optA)
		if ch != ca {
			t.Fatalf("trial %d %v->%v: cost heap=%v astar=%v", trial, tail, head, ch, ca)
		}
	}
}

// distHeap is a plain container/heap used by the reference Dijkstra in the
// admissibility property test (deliberately independent of the kernels
// under test).
type distHeap []pqItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].key < h[j].key }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)         { *h = append(*h, x.(pqItem)) }
func (h *distHeap) Pop() any           { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h *distHeap) popMin() pqItem     { return heap.Pop(h).(pqItem) }
func (h *distHeap) pushItem(it pqItem) { heap.Push(h, it) }

// TestAstarBoundAdmissible is the property test behind the astar kernel:
// on random congested grids, the heuristic cmin * manhattan-to-nearest-goal
// never exceeds the true remaining cost (the exact multi-source Dijkstra
// distance to the goal set under the live Eq. (1) edge costs). Grid edges
// are symmetric, so the reverse search gives the true forward remaining
// cost.
func TestAstarBoundAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	opt := DefaultOptions()
	for trial := 0; trial < 40; trial++ {
		w, h := 4+r.Intn(12), 4+r.Intn(12)
		g, err := tile.New(w, h, nil, 1+r.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < g.NumEdges(); e++ {
			for k := r.Intn(4); k > 0; k-- {
				g.AddWire(e) // overload some edges past capacity
			}
		}
		// Goal set: 1-3 random tiles.
		var goals []int
		n := &netlist.Net{ID: trial, Name: "p", L: 4,
			Source: netlist.Pin{Tile: geom.Pt{X: r.Intn(w), Y: r.Intn(h)}}}
		for k := 0; k <= r.Intn(3); k++ {
			p := geom.Pt{X: r.Intn(w), Y: r.Intn(h)}
			n.Sinks = append(n.Sinks, netlist.Pin{Tile: p})
			goals = append(goals, g.TileIndex(p))
		}

		// True remaining cost: multi-source Dijkstra from the goals.
		dist := make([]float64, g.NumTiles())
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		var q distHeap
		for _, gi := range goals {
			if dist[gi] > 0 {
				dist[gi] = 0
				q.pushItem(pqItem{gi, 0})
			}
		}
		for q.Len() > 0 {
			it := q.popMin()
			if it.key > dist[it.node] {
				continue
			}
			nbrs, edges := g.Adjacency(it.node)
			for x, v32 := range nbrs {
				v := int(v32)
				if d := it.key + edgeCost(g, int(edges[x]), opt); d < dist[v] {
					dist[v] = d
					q.pushItem(pqItem{v, d})
				}
			}
		}

		// The armed heuristic must lower-bound it everywhere, for every
		// feasible incoming edge cost (at alpha = 1 the ec term vanishes;
		// smaller alpha only shrinks the bound, and the ec subtraction is
		// covered by feeding the smallest legal ec).
		ws := NewWorkspace()
		ws.growTiles(g.NumTiles())
		ws.begin(g.NumEdges())
		ws.astarArmReroute(g, n, opt)
		ws.astar.alpha = 1
		for v := 0; v < g.NumTiles(); v++ {
			if hv := ws.astarHR(v, 0); hv > dist[v]+1e-12 {
				t.Fatalf("trial %d tile %d: heuristic %v exceeds true remaining cost %v", trial, v, hv, dist[v])
			}
		}
	}
}

// TestKernelLabelFollowsRerouteFallback pins the Stage-2 per-kernel totals
// to the kernel Reroute actually ran: astar at the default alpha falls
// back to heap order, so its totals are labeled heap; at alpha = 1 the
// goal-directed order runs and the label is astar.
func TestKernelLabelFollowsRerouteFallback(t *testing.T) {
	for _, tc := range []struct {
		alpha     float64
		want, not string
	}{{0.4, KernelHeap, KernelAstar}, {1, KernelAstar, KernelHeap}} {
		g, nets, routes, order := benchWorkload(t)
		m := obs.NewMetrics()
		opt := DefaultOptions()
		opt.Kernel = KernelAstar
		opt.Alpha = tc.alpha
		opt.Obs = m
		passes, err := ReduceCongestionCtx(context.Background(), g, nets, routes, order, 1, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if passes != 1 {
			t.Fatalf("alpha=%v: %d passes, want 1 (the workload must reroute)", tc.alpha, passes)
		}
		if got, all := m.Counter("route.pops."+tc.want), m.Counter("route.pops"); got == 0 || got != all {
			t.Errorf("alpha=%v: route.pops.%s = %v, want the pass's %v pops", tc.alpha, tc.want, got, all)
		}
		if got := m.Counter("route.pops." + tc.not); got != 0 {
			t.Errorf("alpha=%v: route.pops.%s = %v, want 0", tc.alpha, tc.not, got)
		}
	}
}
