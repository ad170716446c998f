package route

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/netlist"
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

func grid(t *testing.T, w, h, cap int) *tile.Graph {
	t.Helper()
	g, err := tile.New(w, h, nil, cap)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRerouteStraightLine(t *testing.T) {
	g := grid(t, 10, 1, 4)
	n := mkNet(0, geom.Pt{X: 0, Y: 0}, geom.Pt{X: 9, Y: 0})
	rt, err := Reroute(g, n, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumEdges() != 9 {
		t.Errorf("straight route has %d edges, want 9", rt.NumEdges())
	}
	if err := rt.Validate(g.InGrid); err != nil {
		t.Fatal(err)
	}
}

func TestRerouteAvoidsCongestion(t *testing.T) {
	// 3-wide corridor; saturate the middle row's edges so the route detours.
	g := grid(t, 5, 3, 1)
	for x := 0; x < 4; x++ {
		e, ok := g.EdgeBetween(geom.Pt{X: x, Y: 1}, geom.Pt{X: x + 1, Y: 1})
		if !ok {
			t.Fatal("edge lookup failed")
		}
		g.AddWire(e)
	}
	n := mkNet(0, geom.Pt{X: 0, Y: 1}, geom.Pt{X: 4, Y: 1})
	rt, err := Reroute(g, n, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Route must leave row 1 (the direct 4-edge path is saturated).
	usedMiddle := 0
	for _, pq := range rt.EdgePairs() {
		if pq[0].Y == 1 && pq[1].Y == 1 {
			usedMiddle++
		}
	}
	if usedMiddle != 0 {
		t.Errorf("route used %d saturated middle edges", usedMiddle)
	}
	if rt.NumEdges() < 6 {
		t.Errorf("detour too short: %d edges", rt.NumEdges())
	}
}

func TestRerouteMultiSinkSharing(t *testing.T) {
	g := grid(t, 10, 10, 8)
	n := mkNet(0, geom.Pt{X: 0, Y: 0}, geom.Pt{X: 9, Y: 0}, geom.Pt{X: 9, Y: 1})
	rt, err := Reroute(g, n, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Union of wavefront paths shares the common run: far fewer edges than
	// two disjoint routes (9 + 10 = 19).
	if rt.NumEdges() > 12 {
		t.Errorf("no sharing: %d edges", rt.NumEdges())
	}
	if len(rt.SinkNode) != 2 {
		t.Error("missing sink")
	}
}

func TestRerouteErrors(t *testing.T) {
	g := grid(t, 5, 5, 2)
	n := mkNet(0, geom.Pt{X: 9, Y: 9}, geom.Pt{X: 0, Y: 0})
	if _, err := Reroute(g, n, DefaultOptions(), nil); err == nil {
		t.Error("out-of-grid source accepted")
	}
	n = mkNet(0, geom.Pt{X: 0, Y: 0}, geom.Pt{X: 9, Y: 9})
	if _, err := Reroute(g, n, DefaultOptions(), nil); err == nil {
		t.Error("out-of-grid sink accepted")
	}
}

func TestAddRemoveUsageConserves(t *testing.T) {
	g := grid(t, 8, 8, 4)
	n := mkNet(0, geom.Pt{X: 1, Y: 1}, geom.Pt{X: 6, Y: 6}, geom.Pt{X: 1, Y: 6})
	rt, err := Reroute(g, n, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	AddUsage(g, rt)
	sum := 0
	for e := 0; e < g.NumEdges(); e++ {
		sum += g.Usage(e)
	}
	if sum != rt.NumEdges() {
		t.Errorf("registered %d wires for %d edges", sum, rt.NumEdges())
	}
	RemoveUsage(g, rt)
	if st := g.WireCongestion(); st.Max != 0 {
		t.Error("usage not conserved")
	}
}

func TestRipupPassKeepsAccountingConsistent(t *testing.T) {
	g := grid(t, 12, 12, 2)
	r := rand.New(rand.NewSource(3))
	var nets []*netlist.Net
	for i := 0; i < 20; i++ {
		nets = append(nets, mkNet(i,
			geom.Pt{X: r.Intn(12), Y: r.Intn(12)},
			geom.Pt{X: r.Intn(12), Y: r.Intn(12)},
			geom.Pt{X: r.Intn(12), Y: r.Intn(12)}))
	}
	routes := make([]*rtree.Tree, len(nets))
	order := make([]int, len(nets))
	for i := range nets {
		rt, err := Reroute(g, nets[i], DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		routes[i] = rt
		AddUsage(g, rt)
		order[i] = i
	}
	committed, err := RipupPass(g, nets, routes, order, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if committed != len(order) {
		t.Errorf("committed %d of %d nets on success", committed, len(order))
	}
	// Total registered wires must equal total route edges.
	sum := 0
	for e := 0; e < g.NumEdges(); e++ {
		sum += g.Usage(e)
	}
	want := 0
	for _, rt := range routes {
		want += rt.NumEdges()
	}
	if sum != want {
		t.Errorf("usage %d != route edges %d", sum, want)
	}
}

func TestReduceCongestionEliminatesOverflow(t *testing.T) {
	// Many parallel nets through a narrow region; capacity 3 forces spreading.
	g := grid(t, 10, 10, 3)
	var nets []*netlist.Net
	for i := 0; i < 8; i++ {
		nets = append(nets, mkNet(i, geom.Pt{X: 0, Y: 4}, geom.Pt{X: 9, Y: 4}))
	}
	routes := make([]*rtree.Tree, len(nets))
	order := make([]int, len(nets))
	for i := range nets {
		// Deliberately identical initial routes: all on row 4.
		parent := map[geom.Pt]geom.Pt{}
		for x := 1; x < 10; x++ {
			parent[geom.Pt{X: x, Y: 4}] = geom.Pt{X: x - 1, Y: 4}
		}
		rt, err := rtree.FromParentMap(geom.Pt{X: 0, Y: 4}, parent, []geom.Pt{{X: 9, Y: 4}})
		if err != nil {
			t.Fatal(err)
		}
		routes[i] = rt
		AddUsage(g, rt)
		order[i] = i
	}
	if g.WireCongestion().Overflow == 0 {
		t.Fatal("test setup should overflow")
	}
	passes, err := ReduceCongestion(g, nets, routes, order, 3, DefaultOptions(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if passes < 1 {
		t.Error("no passes executed")
	}
	if st := g.WireCongestion(); st.Overflow != 0 {
		t.Errorf("overflow %d remains after %d passes", st.Overflow, passes)
	}
}

func TestBufferAwarePathStraight(t *testing.T) {
	sites := make([]int, 100)
	for i := range sites {
		sites[i] = 4
	}
	g, err := tile.New(10, 10, sites, 4)
	if err != nil {
		t.Fatal(err)
	}
	path, err := BufferAwarePath(g, geom.Pt{X: 9, Y: 5}, geom.Pt{X: 0, Y: 5}, 4, nil, nil, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != (geom.Pt{X: 0, Y: 5}) || path[len(path)-1] != (geom.Pt{X: 9, Y: 5}) {
		t.Fatalf("endpoints wrong: %v", path)
	}
	if len(path) != 10 {
		t.Errorf("path length %d, want 10 (straight)", len(path))
	}
	for i := 1; i < len(path); i++ {
		if path[i-1].Manhattan(path[i]) != 1 {
			t.Fatal("path not contiguous")
		}
	}
}

func TestBufferAwarePathAvoidsSitelessCorridor(t *testing.T) {
	// L = 2 forces a buffer every other tile; the straight row has no sites,
	// an adjacent row has plenty. The path should shift rows.
	w, h := 12, 3
	sites := make([]int, w*h)
	for x := 0; x < w; x++ {
		sites[0*w+x] = 0 // y=0: no sites
		sites[1*w+x] = 5 // y=1: sites
		sites[2*w+x] = 0
	}
	g, err := tile.New(w, h, sites, 10)
	if err != nil {
		t.Fatal(err)
	}
	path, err := BufferAwarePath(g, geom.Pt{X: 11, Y: 0}, geom.Pt{X: 0, Y: 0}, 2, nil, nil, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	onSiteRow := 0
	for _, p := range path {
		if p.Y == 1 {
			onSiteRow++
		}
	}
	if onSiteRow == 0 {
		t.Errorf("path never used the buffered row: %v", path)
	}
}

func TestBufferAwarePathRespectsBlocked(t *testing.T) {
	g := grid(t, 6, 3, 10)
	blocked := make([]bool, g.NumTiles())
	for x := 0; x < 6; x++ {
		blocked[g.TileIndex(geom.Pt{X: x, Y: 1})] = true // wall across the middle
	}
	// Tail below the wall, head above: impossible without entering blocked.
	if _, err := BufferAwarePath(g, geom.Pt{X: 3, Y: 0}, geom.Pt{X: 3, Y: 2}, 3, blocked, nil, DefaultOptions(), nil); err == nil {
		t.Error("blocked wall should make head unreachable")
	}
	// Head on the wall itself is allowed (endpoint exemption).
	if _, err := BufferAwarePath(g, geom.Pt{X: 3, Y: 0}, geom.Pt{X: 3, Y: 1}, 3, blocked, nil, DefaultOptions(), nil); err != nil {
		t.Errorf("head exemption failed: %v", err)
	}
}

func TestBufferAwarePathBadArgs(t *testing.T) {
	g := grid(t, 4, 4, 2)
	if _, err := BufferAwarePath(g, geom.Pt{}, geom.Pt{X: 3}, 0, nil, nil, DefaultOptions(), nil); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := BufferAwarePath(g, geom.Pt{X: 9, Y: 9}, geom.Pt{}, 2, nil, nil, DefaultOptions(), nil); err == nil {
		t.Error("off-grid tail accepted")
	}
}

// TestBufferAwarePathStateOverflowGuard probes the exact int32 boundary of
// the (tile, j) DP state space. NumTiles()*L one past math.MaxInt32 used to
// silently wrap the int32 predecessor labels and corrupt the traceback; it
// must now be rejected, and rejected *before* any state array is allocated
// (a 2^31-state allocation would be tens of gigabytes — if the guard ran
// after the allocation this test would OOM instead of passing).
func TestBufferAwarePathStateOverflowGuard(t *testing.T) {
	g := grid(t, 2, 2, 2) // 4 tiles
	overL := math.MaxInt32/4 + 1
	if int64(4)*int64(overL) != int64(math.MaxInt32)+1 {
		t.Fatalf("bad boundary arithmetic: 4*%d", overL)
	}
	if _, err := BufferAwarePath(g, geom.Pt{}, geom.Pt{X: 1}, overL, nil, nil, DefaultOptions(), nil); err == nil {
		t.Fatal("state space of MaxInt32+1 accepted; int32 predecessors would overflow")
	}
	// A two-path under the same options but a sane L still routes.
	path, err := BufferAwarePath(g, geom.Pt{}, geom.Pt{X: 1}, 4, nil, nil, DefaultOptions(), nil)
	if err != nil {
		t.Fatalf("sane L rejected: %v", err)
	}
	if len(path) < 2 || path[0] != (geom.Pt{X: 1}) || path[len(path)-1] != (geom.Pt{}) {
		t.Fatalf("bad path %v", path)
	}
}

func TestRerouteAlwaysConnectsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, h := 4+r.Intn(10), 4+r.Intn(10)
		g, err := tile.New(w, h, nil, 1+r.Intn(4))
		if err != nil {
			return false
		}
		// Random pre-existing congestion.
		for i := 0; i < r.Intn(100); i++ {
			g.AddWire(r.Intn(g.NumEdges()))
		}
		nSinks := 1 + r.Intn(4)
		sinks := make([]geom.Pt, nSinks)
		for i := range sinks {
			sinks[i] = geom.Pt{X: r.Intn(w), Y: r.Intn(h)}
		}
		n := mkNet(0, geom.Pt{X: r.Intn(w), Y: r.Intn(h)}, sinks...)
		rt, err := Reroute(g, n, DefaultOptions(), nil)
		if err != nil {
			return false
		}
		if rt.Validate(g.InGrid) != nil {
			return false
		}
		for i, s := range n.Sinks {
			if rt.Tile[rt.SinkNode[i]] != s.Tile {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
