package bufferdp

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// BenchmarkAssignLib runs the library DP on a 160-node comb (a 3-tile
// tooth at every 4th spine tile) over a two-buffer, one-inverter library:
// "fresh" allocates its arenas per call, as the package-level AssignLib
// does; "scratch" reuses one warmed LibScratch, as the pipeline does.
func BenchmarkAssignLib(b *testing.B) {
	parent := map[geom.Pt]geom.Pt{}
	var sinks []geom.Pt
	for x := 1; x < 128; x++ {
		parent[geom.Pt{X: x}] = geom.Pt{X: x - 1}
		if x%4 == 0 {
			for y := 1; y <= 3; y++ {
				parent[geom.Pt{X: x, Y: y}] = geom.Pt{X: x, Y: y - 1}
			}
			sinks = append(sinks, geom.Pt{X: x, Y: 3})
		}
	}
	sinks = append(sinks, geom.Pt{X: 127})
	rt, err := rtree.FromParentMap(geom.Pt{}, parent, sinks)
	if err != nil {
		b.Fatal(err)
	}
	q := func(v int) float64 { return 1 + float64(v%3) }
	lib := []LibGate{{L: 6, CostScale: 1}, {L: 12, CostScale: 2.2}, {L: 9, CostScale: 0.7, Invert: true}}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AssignLib(rt, 6, lib, q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var sc LibScratch
		if _, err := sc.AssignLib(rt, 6, lib, q, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sc.AssignLib(rt, 6, lib, q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
