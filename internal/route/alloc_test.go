package route

import (
	"testing"

	"repro/internal/geom"
)

// TestRerouteZeroAllocSteadyState enforces the headline contract for every
// search kernel: with a warmed Workspace and a nil observer, Reroute
// performs zero heap allocations per call. This is a test, not just a
// benchmark, so a regression fails CI rather than only shifting a number
// nobody reads. The dial kernel's bucket array and the astar kernel's goal
// buffers are workspace-owned and sized on the warm-up calls, so they are
// held to the same exact-zero bound as the heap.
func TestRerouteZeroAllocSteadyState(t *testing.T) {
	for _, kernel := range Kernels() {
		t.Run(kernel, func(t *testing.T) {
			g, nets, routes, _ := benchWorkload(t)
			n := nets[17]
			RemoveUsage(g, routes[17])
			opt := DefaultOptions()
			opt.Kernel = kernel
			ws := NewWorkspace()
			// Warm: first call sizes every workspace array and the recycled tree.
			for i := 0; i < 3; i++ {
				rt, err := Reroute(g, n, opt, ws)
				if err != nil {
					t.Fatal(err)
				}
				ws.Recycle(rt)
			}
			avg := testing.AllocsPerRun(200, func() {
				rt, err := Reroute(g, n, opt, ws)
				if err != nil {
					t.Fatal(err)
				}
				ws.Recycle(rt)
			})
			if avg != 0 {
				t.Fatalf("Reroute[%s] with warmed workspace: %v allocs/run, want 0", kernel, avg)
			}
		})
	}
}

// TestRipupPassAllocBound: a full Nair pass over 120 nets must stay O(1)
// allocations — independent of net count — once the workspace and the
// recycled-tree free list are warm, under every kernel. The pre-workspace
// kernel allocated ~100k times per pass on this workload.
func TestRipupPassAllocBound(t *testing.T) {
	for _, kernel := range Kernels() {
		t.Run(kernel, func(t *testing.T) {
			g, nets, routes, order := benchWorkload(t)
			opt := DefaultOptions()
			opt.Kernel = kernel
			ws := NewWorkspace()
			// Warm until the amortized growth settles: dial buckets keep
			// growing for a few passes while congestion drifts (keys land in
			// previously-untouched buckets), then reach a fixed point.
			for i := 0; i < 6; i++ {
				if _, err := RipupPass(g, nets, routes, order, opt, ws); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(20, func() {
				if _, err := RipupPass(g, nets, routes, order, opt, ws); err != nil {
					t.Fatal(err)
				}
			})
			// O(1) bound: a handful of allocations (occasional amortized slice
			// regrowth) is acceptable; anything scaling with the 120 nets is not.
			if avg > 8 {
				t.Fatalf("RipupPass[%s] with warmed workspace: %v allocs/run, want <= 8", kernel, avg)
			}
		})
	}
}

// TestBufferAwarePathZeroAllocSteadyState: Stage 4's maze search shares the
// same workspace discipline as Reroute, under every kernel, with and without
// an incumbent (astar arms its reverse-Dijkstra heuristic here, and the
// incumbent calls run the incumbent pass and the capped arming, so this
// also pins those as alloc-free).
func TestBufferAwarePathZeroAllocSteadyState(t *testing.T) {
	for _, kernel := range Kernels() {
		for _, withInc := range []bool{false, true} {
			name := kernel
			if withInc {
				name += "/incumbent"
			}
			t.Run(name, func(t *testing.T) {
				g, tail, head, blocked := benchPathInstance(t)
				var inc []geom.Pt
				if withInc {
					inc = benchIncumbent(t, g, tail, head, blocked)
				}
				opt := DefaultOptions()
				opt.Kernel = kernel
				ws := NewWorkspace()
				for i := 0; i < 2; i++ {
					if _, err := BufferAwarePath(g, tail, head, 6, blocked, inc, opt, ws); err != nil {
						t.Fatal(err)
					}
				}
				avg := testing.AllocsPerRun(100, func() {
					if _, err := BufferAwarePath(g, tail, head, 6, blocked, inc, opt, ws); err != nil {
						t.Fatal(err)
					}
				})
				if avg != 0 {
					t.Fatalf("BufferAwarePath[%s] with warmed workspace: %v allocs/run, want 0", name, avg)
				}
			})
		}
	}
}
