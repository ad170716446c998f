package route

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tile"
)

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

// TestKernelLabelFollowsRerouteFallback pins the Stage-2 per-kernel totals
// to the search Stage 2 runs: Reroute always pops from the heap, so under
// either kernel, at the default alpha and at alpha = 1 (the cost-distance
// mode's Stage 2), the pass's pops are all labeled heap and none astar.
func TestKernelLabelFollowsRerouteFallback(t *testing.T) {
	for _, kernel := range Kernels() {
		for _, alpha := range []float64{0.4, 1} {
			g, nets, routes, order := benchWorkload(t)
			m := obs.NewMetrics()
			opt := DefaultOptions()
			opt.Kernel = kernel
			opt.Alpha = alpha
			opt.Obs = m
			passes, err := ReduceCongestionCtx(context.Background(), g, nets, routes, order, 1, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if passes != 1 {
				t.Fatalf("%s alpha=%v: %d passes, want 1 (the workload must reroute)", kernel, alpha, passes)
			}
			if got, all := m.Counter("route.pops."+KernelHeap), m.Counter("route.pops"); got == 0 || got != all {
				t.Errorf("%s alpha=%v: route.pops.heap = %v, want the pass's %v pops", kernel, alpha, got, all)
			}
			if got := m.Counter("route.pops." + KernelAstar); got != 0 {
				t.Errorf("%s alpha=%v: route.pops.astar = %v, want 0", kernel, alpha, got)
			}
		}
	}
}
