package mcf

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/rtree"
	"repro/internal/tile"
)

func mkNet(id int, src geom.Pt, sinks ...geom.Pt) *netlist.Net {
	pin := func(p geom.Pt) netlist.Pin {
		return netlist.Pin{Tile: p, Pos: geom.FPt{X: float64(p.X) * 100, Y: float64(p.Y) * 100}}
	}
	n := &netlist.Net{ID: id, Name: "t", Source: pin(src), L: 5}
	for _, s := range sinks {
		n.Sinks = append(n.Sinks, pin(s))
	}
	return n
}

func TestOptionsValidation(t *testing.T) {
	g, _ := tile.New(4, 4, nil, 2)
	nets := []*netlist.Net{mkNet(0, geom.Pt{}, geom.Pt{X: 3})}
	if _, err := Route(g, nets, Options{Phases: -1}); err == nil {
		t.Error("negative phases accepted")
	}
	if _, err := Route(g, nets, Options{Epsilon: 2}); err == nil {
		t.Error("epsilon >= 1 accepted")
	}
}

func TestRoutesAllNetsValidly(t *testing.T) {
	g, err := tile.New(10, 10, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	var nets []*netlist.Net
	for i := 0; i < 15; i++ {
		nets = append(nets, mkNet(i,
			geom.Pt{X: r.Intn(10), Y: r.Intn(10)},
			geom.Pt{X: r.Intn(10), Y: r.Intn(10)},
			geom.Pt{X: r.Intn(10), Y: r.Intn(10)}))
	}
	res, err := Route(g, nets, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != len(nets) {
		t.Fatalf("routed %d of %d nets", len(res.Routes), len(nets))
	}
	for i, rt := range res.Routes {
		if rt == nil {
			t.Fatalf("net %d unrouted", i)
		}
		if err := rt.Validate(g.InGrid); err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
		if rt.Tile[0] != nets[i].Source.Tile {
			t.Fatalf("net %d root moved", i)
		}
		for k, s := range nets[i].Sinks {
			if rt.Tile[rt.SinkNode[k]] != s.Tile {
				t.Fatalf("net %d sink %d moved", i, k)
			}
		}
	}
	if res.FractionalMaxCongestion <= 0 {
		t.Error("fractional bound missing")
	}
	if res.RoundedMaxCongestion < res.FractionalMaxCongestion-1e-9 {
		// Rounding can beat the average only by luck of discreteness; it
		// should never be dramatically below the fractional max, but a
		// slightly lower value is possible. Only sanity-check positivity.
		t.Logf("rounded %v below fractional %v", res.RoundedMaxCongestion, res.FractionalMaxCongestion)
	}
}

func TestSpreadsParallelDemand(t *testing.T) {
	// The classic fixture: 8 identical nets across a capacity-3 grid row.
	// Naive shortest routing stacks all 8 on one row (congestion 8/3);
	// MCF must spread them to approach the fractional optimum.
	g, err := tile.New(10, 10, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	var nets []*netlist.Net
	for i := 0; i < 8; i++ {
		nets = append(nets, mkNet(i, geom.Pt{X: 0, Y: 4}, geom.Pt{X: 9, Y: 4}))
	}
	res, err := Route(g, nets, Options{Seed: 2, Phases: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundedMaxCongestion > 1.0+1e-9 {
		t.Errorf("MCF left congestion %v > 1 on a spreadable instance", res.RoundedMaxCongestion)
	}
	if res.FractionalMaxCongestion > 1.0+1e-9 {
		t.Errorf("fractional congestion %v > 1", res.FractionalMaxCongestion)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g, _ := tile.New(8, 8, nil, 2)
	var nets []*netlist.Net
	for i := 0; i < 6; i++ {
		nets = append(nets, mkNet(i, geom.Pt{X: 0, Y: i}, geom.Pt{X: 7, Y: i}))
	}
	a, err := Route(g, nets, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Route(g, nets, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Routes {
		if !reflect.DeepEqual(a.Routes[i].Tile, b.Routes[i].Tile) || !reflect.DeepEqual(a.Routes[i].Parent, b.Routes[i].Parent) {
			t.Fatal("same seed produced different routings")
		}
	}
}

func TestComparableToRipupOnContention(t *testing.T) {
	// MCF and the greedy rip-up router should both resolve this solvable
	// instance; MCF's certificate bounds the gap. Sources are distinct
	// tiles so the instance is actually feasible (a single shared source
	// tile would cap the escaping wires at 3 edges x capacity).
	g, err := tile.New(12, 6, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nets []*netlist.Net
	for i := 0; i < 10; i++ {
		nets = append(nets, mkNet(i, geom.Pt{X: 0, Y: i % 6}, geom.Pt{X: 11, Y: i % 6}))
	}
	res, err := Route(g, nets, Options{Seed: 3, Phases: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range res.Routes {
		route.AddUsage(g, rt)
	}
	if st := g.WireCongestion(); st.Overflow != 0 {
		t.Errorf("MCF rounding left %d overflow on a solvable instance", st.Overflow)
	}
}

func TestPoolIdentityDistinguishesRoutes(t *testing.T) {
	g, _ := tile.New(4, 4, nil, 8)
	n := mkNet(0, geom.Pt{}, geom.Pt{X: 3, Y: 3})
	a, err := route.Reroute(g, n, route.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Congest a's edges to force a different route.
	for _, pq := range a.EdgePairs() {
		e, _ := g.EdgeBetween(pq[0], pq[1])
		for i := 0; i < 8; i++ {
			g.AddWire(e)
		}
	}
	b, err := route.Reroute(g, n, route.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var p pool
	if !p.add(a) || !p.add(b) {
		t.Fatal("different routes merged into one pool entry")
	}
	if p.add(a) || len(p) != 2 || p[0].count != 2 || p[1].count != 1 {
		t.Fatalf("re-adding a pooled route: pool %+v, want it counted on its entry", p)
	}
}

// pathTree builds the route of a tile path as Reroute numbers it: nodes in
// ascending (Y, X) order, each chain parent first.
func pathTree(t *testing.T, path ...geom.Pt) *rtree.Tree {
	t.Helper()
	parent := map[geom.Pt]geom.Pt{}
	for k := 1; k < len(path); k++ {
		parent[path[k]] = path[k-1]
	}
	rt, err := rtree.FromParentMap(path[0], parent, []geom.Pt{path[len(path)-1]})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestPoolKeepsCollidingTrees: two different 15-edge trees routed for one
// net of coarse apte. The former hashed pool key (edge count, the sum of
// the packed edge codes times a constant, and their xor) is the same for
// both, so the second tree was merged into the first and its phase counts
// went to the wrong tree. Exact comparison keeps both, and an equal tree
// built separately still lands on its entry.
func TestPoolKeepsCollidingTrees(t *testing.T) {
	pts := func(xy ...int) []geom.Pt {
		var out []geom.Pt
		for k := 0; k < len(xy); k += 2 {
			out = append(out, geom.Pt{X: xy[k], Y: xy[k+1]})
		}
		return out
	}
	pa := pts(9, 6, 8, 6, 7, 6, 7, 5, 6, 5, 5, 5, 4, 5, 4, 4, 3, 4, 3, 3, 2, 3, 1, 3, 1, 2, 1, 1, 1, 0, 0, 0)
	pb := pts(9, 6, 8, 6, 7, 6, 7, 5, 6, 5, 6, 4, 5, 4, 4, 4, 3, 4, 2, 4, 1, 4, 1, 3, 1, 2, 1, 1, 1, 0, 0, 0)
	a, b, a2 := pathTree(t, pa...), pathTree(t, pb...), pathTree(t, pa...)
	if hashedKey(a) != hashedKey(b) {
		t.Fatalf("fixture no longer collides under the former key: %v vs %v", hashedKey(a), hashedKey(b))
	}
	var p pool
	if !p.add(a) || !p.add(b) {
		t.Fatal("two different trees merged into one pool entry")
	}
	if p.add(a2) || len(p) != 2 || p[0].count != 2 {
		t.Fatalf("an equal tree was not merged: pool of %d entries, counts %d/%d", len(p), p[0].count, p[1].count)
	}
}

// hashedKey is the pool identity mcf used before exact comparison, kept
// here to show the fixture's collision.
func hashedKey(rt *rtree.Tree) [3]uint64 {
	pack := func(p geom.Pt) uint64 { return uint64(uint16(p.X))<<16 | uint64(uint16(p.Y)) }
	var k [3]uint64
	for v := 1; v < rt.NumNodes(); v++ {
		p, c := rt.Tile[rt.Parent[v]], rt.Tile[v]
		e := pack(p)<<32 | pack(c)
		if r := pack(c)<<32 | pack(p); r < e {
			e = r
		}
		k[0]++
		k[1] += e * 0x9e3779b97f4a7c15
		k[2] ^= e
	}
	return k
}
