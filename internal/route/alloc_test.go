package route

import (
	"testing"

	"repro/internal/geom"
)

// TestRerouteZeroAllocSteadyState enforces the headline contract: with a
// warmed Workspace and a nil observer, Reroute performs zero heap
// allocations per call. This is a test, not just a benchmark, so a
// regression fails CI rather than only shifting a number nobody reads.
func TestRerouteZeroAllocSteadyState(t *testing.T) {
	g, nets, routes, _ := benchWorkload(t)
	n := nets[17]
	RemoveUsage(g, routes[17])
	ws := NewWorkspace()
	// Warm: first call sizes every workspace array and the recycled tree.
	for i := 0; i < 3; i++ {
		rt, err := Reroute(g, n, DefaultOptions(), ws)
		if err != nil {
			t.Fatal(err)
		}
		ws.Recycle(rt)
	}
	avg := testing.AllocsPerRun(200, func() {
		rt, err := Reroute(g, n, DefaultOptions(), ws)
		if err != nil {
			t.Fatal(err)
		}
		ws.Recycle(rt)
	})
	if avg != 0 {
		t.Fatalf("Reroute with warmed workspace: %v allocs/run, want 0", avg)
	}
}

// TestRipupPassAllocBound: a full Nair pass over 120 nets must stay O(1)
// allocations — independent of net count — once the workspace and the
// recycled-tree free list are warm. The pre-workspace router allocated
// ~100k times per pass on this workload.
func TestRipupPassAllocBound(t *testing.T) {
	g, nets, routes, order := benchWorkload(t)
	ws := NewWorkspace()
	// Warm until the amortized growth of the recycled trees settles.
	for i := 0; i < 6; i++ {
		if _, err := RipupPass(g, nets, routes, order, DefaultOptions(), ws); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := RipupPass(g, nets, routes, order, DefaultOptions(), ws); err != nil {
			t.Fatal(err)
		}
	})
	// O(1) bound: a handful of allocations (occasional amortized slice
	// regrowth) is acceptable; anything scaling with the 120 nets is not.
	if avg > 8 {
		t.Fatalf("RipupPass with warmed workspace: %v allocs/run, want <= 8", avg)
	}
}

// TestBufferAwarePathZeroAllocSteadyState: Stage 4's maze search shares the
// same workspace discipline as Reroute, with and without an incumbent. At
// L = 6 the incumbent calls run the incumbent pass and arm the capped
// reverse-Dijkstra h, so this also pins those as alloc-free.
func TestBufferAwarePathZeroAllocSteadyState(t *testing.T) {
	for _, name := range []string{"plain", "incumbent"} {
		t.Run(name, func(t *testing.T) {
			g, tail, head, blocked := benchPathInstance(t)
			var inc []geom.Pt
			if name == "incumbent" {
				inc = benchIncumbent(t, g, tail, head, blocked)
			}
			ws := NewWorkspace()
			for i := 0; i < 2; i++ {
				if _, err := BufferAwarePath(g, tail, head, 6, blocked, inc, DefaultOptions(), ws); err != nil {
					t.Fatal(err)
				}
			}
			if armed := hArmed(ws, g.TileIndex(head)); armed != (inc != nil) {
				t.Fatalf("%s: h armed = %v", name, armed)
			}
			avg := testing.AllocsPerRun(100, func() {
				if _, err := BufferAwarePath(g, tail, head, 6, blocked, inc, DefaultOptions(), ws); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("BufferAwarePath[%s] with warmed workspace: %v allocs/run, want 0", name, avg)
			}
		})
	}
}
