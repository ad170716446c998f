package steiner

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/spanning"
)

func TestMedian3(t *testing.T) {
	cases := [][4]int{
		{1, 2, 3, 2}, {3, 2, 1, 2}, {2, 1, 3, 2}, {5, 5, 1, 5}, {1, 1, 1, 1}, {0, 9, 4, 4},
	}
	for _, c := range cases {
		if got := median3(c[0], c[1], c[2]); got != c[3] {
			t.Errorf("median3(%d,%d,%d) = %d, want %d", c[0], c[1], c[2], got, c[3])
		}
	}
}

func TestFig4OverlapRemoval(t *testing.T) {
	// Fig. 4: a node with two edges going right-up and right-down overlaps
	// on the shared horizontal run; a Steiner point removes it.
	pts := []geom.Pt{{X: 0, Y: 2}, {X: 4, Y: 0}, {X: 4, Y: 4}}
	parent := []int{-1, 0, 0}
	before := spanning.Wirelength(pts, parent) // 6 + 6 = 12
	st := RemoveOverlaps(pts, parent)
	if st.Wirelength() >= before {
		t.Fatalf("overlap removal did not reduce wirelength: %d -> %d", before, st.Wirelength())
	}
	// Optimal: Steiner point at (4,2): 4 + 2 + 2 = 8.
	if st.Wirelength() != 8 {
		t.Errorf("wirelength = %d, want 8", st.Wirelength())
	}
	if len(st.Pts) != 4 {
		t.Errorf("expected one Steiner point, got pts %v", st.Pts)
	}
	if st.Pts[3] != (geom.Pt{X: 4, Y: 2}) {
		t.Errorf("Steiner point = %v, want (4,2)", st.Pts[3])
	}
}

func TestOverlapRemovalNoGain(t *testing.T) {
	// Collinear chain has no overlap to remove.
	pts := []geom.Pt{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 6, Y: 0}}
	parent := []int{-1, 0, 1}
	st := RemoveOverlaps(pts, parent)
	if len(st.Pts) != 3 || st.Wirelength() != 6 {
		t.Errorf("chain modified: %v wl=%d", st.Pts, st.Wirelength())
	}
}

func TestOverlapRemovalReusesExistingNode(t *testing.T) {
	// Steiner point coincides with an endpoint: edges (u,a),(u,b) where the
	// median of the triple is a itself.
	pts := []geom.Pt{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 4, Y: 0}}
	parent := []int{-1, 0, 0} // u=0: edges to (2,0) and (4,0); median is (2,0)
	st := RemoveOverlaps(pts, parent)
	if len(st.Pts) != 3 {
		t.Fatalf("should not add a node, got %v", st.Pts)
	}
	if st.Wirelength() != 4 {
		t.Errorf("wirelength = %d, want 4", st.Wirelength())
	}
}

// spanningConnected verifies the Steiner tree connects all terminals.
func connected(st *Tree) bool {
	if len(st.Pts) == 0 {
		return false
	}
	adj := make([][]int, len(st.Pts))
	for _, e := range st.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := make([]bool, len(st.Pts))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	for i := 0; i < st.NumTerminals; i++ {
		if !seen[i] {
			return false
		}
	}
	return true
}

func randomDistinctPts(r *rand.Rand, n int) []geom.Pt {
	seen := map[geom.Pt]bool{}
	var pts []geom.Pt
	for len(pts) < n {
		p := geom.Pt{X: r.Intn(20), Y: r.Intn(20)}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	return pts
}

func TestOverlapRemovalProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pts := randomDistinctPts(r, 2+r.Intn(10))
		parent, err := spanning.Tree(pts, 0.4)
		if err != nil {
			return false
		}
		before := spanning.Wirelength(pts, parent)
		st := RemoveOverlaps(pts, parent)
		// Never increases wirelength, remains connected, remains a tree
		// (#edges == #nodes - 1).
		if st.Wirelength() > before {
			return false
		}
		if !connected(st) {
			return false
		}
		return len(st.Edges) == len(st.Pts)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestLPath(t *testing.T) {
	p := LPath(geom.Pt{X: 0, Y: 0}, geom.Pt{X: 3, Y: 2})
	if len(p) != 6 {
		t.Fatalf("path length %d, want 6 tiles", len(p))
	}
	if p[0] != (geom.Pt{X: 0, Y: 0}) || p[len(p)-1] != (geom.Pt{X: 3, Y: 2}) {
		t.Error("endpoints wrong")
	}
	for i := 1; i < len(p); i++ {
		if p[i-1].Manhattan(p[i]) != 1 {
			t.Fatalf("non-adjacent steps %v -> %v", p[i-1], p[i])
		}
	}
	// Degenerate.
	if got := LPath(geom.Pt{X: 2, Y: 2}, geom.Pt{X: 2, Y: 2}); len(got) != 1 {
		t.Errorf("self path = %v", got)
	}
	// Straight line.
	if got := LPath(geom.Pt{X: 0, Y: 0}, geom.Pt{X: 0, Y: -3}); len(got) != 4 {
		t.Errorf("straight path = %v", got)
	}
}

func TestLPathBothOrientationsOccur(t *testing.T) {
	a := geom.Pt{X: 0, Y: 0}
	hFirst := LPath(a, geom.Pt{X: 2, Y: 2}) // parity even -> horizontal first
	vFirst := LPath(a, geom.Pt{X: 2, Y: 1}) // parity odd -> vertical first
	if hFirst[1] != (geom.Pt{X: 1, Y: 0}) {
		t.Errorf("expected horizontal-first, got second tile %v", hFirst[1])
	}
	if vFirst[1] != (geom.Pt{X: 0, Y: 1}) {
		t.Errorf("expected vertical-first, got second tile %v", vFirst[1])
	}
}

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

func TestInitialRouteSimple(t *testing.T) {
	n := mkNet(0, geom.Pt{X: 0, Y: 0}, geom.Pt{X: 5, Y: 3}, geom.Pt{X: 2, Y: 4})
	rt, err := new(Scratch).InitialRoute(n, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if len(rt.SinkNode) != 2 {
		t.Fatalf("sink nodes = %d", len(rt.SinkNode))
	}
	if rt.Tile[0] != (geom.Pt{X: 0, Y: 0}) {
		t.Error("root must be source tile")
	}
	// Route length is at least the RSMT lower bound (half perimeter of the
	// bounding box) and no worse than the star routing.
	if rt.NumEdges() < 8 {
		t.Errorf("route too short: %d edges", rt.NumEdges())
	}
	if rt.NumEdges() > 14 {
		t.Errorf("route too long: %d edges", rt.NumEdges())
	}
}

func TestInitialRouteCoincidentPins(t *testing.T) {
	// Source and sink in the same tile.
	n := mkNet(0, geom.Pt{X: 1, Y: 1}, geom.Pt{X: 1, Y: 1})
	rt, err := new(Scratch).InitialRoute(n, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumNodes() != 1 {
		t.Errorf("coincident net spans %d tiles", rt.NumNodes())
	}
}

func TestInitialRouteProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pts := randomDistinctPts(r, 2+r.Intn(8))
		n := mkNet(0, pts[0], pts[1:]...)
		rt, err := new(Scratch).InitialRoute(n, 0.4)
		if err != nil {
			return false
		}
		if rt.Validate(nil) != nil {
			return false
		}
		if len(rt.SinkNode) != len(n.Sinks) {
			return false
		}
		// Every sink tile must be on the route.
		for i, s := range n.Sinks {
			if rt.Tile[rt.SinkNode[i]] != s.Tile {
				return false
			}
		}
		// No leaf without a sink after pruning.
		childCount := make([]int, rt.NumNodes())
		for v := 1; v < rt.NumNodes(); v++ {
			childCount[rt.Parent[v]]++
		}
		for v := 1; v < rt.NumNodes(); v++ {
			if childCount[v] == 0 && !rt.IsSink(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
