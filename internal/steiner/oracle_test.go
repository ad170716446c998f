package steiner

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/rtree"
	"repro/internal/spanning"
)

// The replaced Stage-1 construction, kept as the oracle Scratch must match
// tree for tree: the map-based pin dedupe (netlist.Net.Tiles), overlap
// removal with a fresh [][]int adjacency per gain step, the L-path slice
// and the map-based embedding, assembled and pruned by rtree.FromParentMap
// and Prune (themselves checked against their replaced bodies in rtree).

func tilesOracle(n *netlist.Net) []geom.Pt {
	seen := map[geom.Pt]bool{n.Source.Tile: true}
	out := []geom.Pt{n.Source.Tile}
	for _, s := range n.Sinks {
		if !seen[s.Tile] {
			seen[s.Tile] = true
			out = append(out, s.Tile)
		}
	}
	return out
}

func removeOverlapsOracle(pts []geom.Pt, parent []int) *Tree {
	t := &Tree{Pts: append([]geom.Pt(nil), pts...), NumTerminals: len(pts)}
	for v, p := range parent {
		if p >= 0 {
			t.Edges = append(t.Edges, [2]int{p, v})
		}
	}
	for {
		adj := make([][]int, len(t.Pts))
		for i, e := range t.Edges {
			adj[e[0]] = append(adj[e[0]], i)
			adj[e[1]] = append(adj[e[1]], i)
		}
		gain, e1, e2, u, s := 0, -1, -1, -1, geom.Pt{}
		for node, inc := range adj {
			for i := 0; i < len(inc); i++ {
				for j := i + 1; j < len(inc); j++ {
					a := t.other(inc[i], node)
					b := t.other(inc[j], node)
					sp := steinerPoint(t.Pts[node], t.Pts[a], t.Pts[b])
					before := t.Pts[node].Manhattan(t.Pts[a]) + t.Pts[node].Manhattan(t.Pts[b])
					after := t.Pts[node].Manhattan(sp) + sp.Manhattan(t.Pts[a]) + sp.Manhattan(t.Pts[b])
					if g := before - after; g > gain {
						gain, e1, e2, u, s = g, inc[i], inc[j], node, sp
					}
				}
			}
		}
		if gain <= 0 {
			return t
		}
		t.apply(e1, e2, u, s)
	}
}

func lPathOracle(a, b geom.Pt) []geom.Pt {
	horizFirst := (a.X+a.Y+b.X+b.Y)%2 == 0
	path := []geom.Pt{a}
	cur := a
	step := func(dx, dy int) {
		cur = cur.Add(geom.Pt{X: dx, Y: dy})
		path = append(path, cur)
	}
	walkX := func() {
		for cur.X != b.X {
			if b.X > cur.X {
				step(1, 0)
			} else {
				step(-1, 0)
			}
		}
	}
	walkY := func() {
		for cur.Y != b.Y {
			if b.Y > cur.Y {
				step(0, 1)
			} else {
				step(0, -1)
			}
		}
	}
	if horizFirst {
		walkX()
		walkY()
	} else {
		walkY()
		walkX()
	}
	return path
}

func embedOracle(t *Tree, sinkTiles []geom.Pt) (*rtree.Tree, error) {
	source := t.Pts[0]
	adj := make([][]int, len(t.Pts))
	for _, e := range t.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	parent := map[geom.Pt]geom.Pt{}
	inTree := func(p geom.Pt) bool {
		if p == source {
			return true
		}
		_, ok := parent[p]
		return ok
	}
	visited := make([]bool, len(t.Pts))
	visited[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range adj[n] {
			if visited[m] {
				continue
			}
			visited[m] = true
			queue = append(queue, m)
			path := lPathOracle(t.Pts[n], t.Pts[m])
			if !inTree(path[0]) {
				return nil, fmt.Errorf("steiner: embedding anchor %v not in tree", path[0])
			}
			prev := path[0]
			for _, tl := range path[1:] {
				if !inTree(tl) {
					parent[tl] = prev
				}
				prev = tl
			}
		}
	}
	for n, ok := range visited {
		if !ok {
			return nil, fmt.Errorf("steiner: node %d (%v) disconnected", n, t.Pts[n])
		}
	}
	rt, err := rtree.FromParentMap(source, parent, sinkTiles)
	if err != nil {
		return nil, err
	}
	return rt.Prune(), nil
}

func initialRouteOracle(n *netlist.Net, alpha float64) (*rtree.Tree, error) {
	tiles := tilesOracle(n)
	par, err := spanning.Tree(tiles, alpha)
	if err != nil {
		return nil, err
	}
	sinks := make([]geom.Pt, len(n.Sinks))
	for i, s := range n.Sinks {
		sinks[i] = s.Tile
	}
	return embedOracle(removeOverlapsOracle(tiles, par), sinks)
}

// oracleCircuits are the ten suite circuits at k/3 of their paper tilings
// for k = 1..4 (k = 1 is the coarse golden tiling, k = 3 the paper's), each
// from the suite's generator seed and from one more.
func oracleCircuits(t *testing.T) []*netlist.Circuit {
	t.Helper()
	var out []*netlist.Circuit
	for _, spec := range floorplan.Suite() {
		for k := 1; k <= 4; k++ {
			for _, seed := range []int64{0, spec.Seed + 1000} {
				c, err := floorplan.Generate(spec, floorplan.Options{GridW: spec.GridW * k / 3, GridH: spec.GridH * k / 3, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// TestInitialRouteMatchesOracle runs one reused Scratch over every net of
// the oracle circuits, at alpha 0, 0.4 and 1, and requires every tree to
// be node-identical to the oracle's.
func TestInitialRouteMatchesOracle(t *testing.T) {
	var sc Scratch
	trees := 0
	for _, c := range oracleCircuits(t) {
		for _, n := range c.Nets {
			for _, alpha := range []float64{0, 0.4, 1} {
				got, err := sc.InitialRoute(n, alpha)
				if err != nil {
					t.Fatalf("%s net %d alpha %v: %v", c.Name, n.ID, alpha, err)
				}
				want, err := initialRouteOracle(n, alpha)
				if err != nil {
					t.Fatalf("%s net %d alpha %v: oracle: %v", c.Name, n.ID, alpha, err)
				}
				if !slices.Equal(got.Tile, want.Tile) || !slices.Equal(got.Parent, want.Parent) || !slices.Equal(got.SinkNode, want.SinkNode) {
					t.Fatalf("%s net %d alpha %v: tree differs from oracle\n got  %v %v %v\n want %v %v %v",
						c.Name, n.ID, alpha, got.Tile, got.Parent, got.SinkNode, want.Tile, want.Parent, want.SinkNode)
				}
				trees++
			}
		}
	}
	t.Logf("%d trees node-identical to the oracle", trees)
}

// TestInitialRouteAllocBound: once a Scratch has seen a circuit's nets, a
// net's Stage-1 construction allocates exactly its output tree — the Tree
// and its Tile, Parent and SinkNode arrays.
func TestInitialRouteAllocBound(t *testing.T) {
	spec, err := floorplan.BySuiteName("xerox")
	if err != nil {
		t.Fatal(err)
	}
	c, err := floorplan.Generate(spec, floorplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	all := func() {
		for _, n := range c.Nets {
			if _, err := sc.InitialRoute(n, 0.4); err != nil {
				t.Fatal(err)
			}
		}
	}
	all()
	if avg := testing.AllocsPerRun(5, all) / float64(len(c.Nets)); avg != 4 {
		t.Errorf("%v allocs per net with a warmed Scratch, want 4 (the output tree)", avg)
	}
}

// TestPinsDedup: the pin tiles are the source, then each distinct sink
// tile in first-occurrence order, and the sink tiles keep every sink in
// order, co-located ones included.
func TestPinsDedup(t *testing.T) {
	n := mkNet(0, geom.Pt{X: 2, Y: 2}, geom.Pt{X: 5, Y: 1}, geom.Pt{X: 2, Y: 2}, geom.Pt{X: 0, Y: 4}, geom.Pt{X: 5, Y: 1})
	var sc Scratch
	if err := sc.pins(n); err != nil {
		t.Fatal(err)
	}
	if want := []geom.Pt{{X: 2, Y: 2}, {X: 5, Y: 1}, {X: 0, Y: 4}}; !slices.Equal(sc.st.Pts, want) {
		t.Errorf("pin tiles %v, want %v", sc.st.Pts, want)
	}
	if want := []geom.Pt{{X: 5, Y: 1}, {X: 2, Y: 2}, {X: 0, Y: 4}, {X: 5, Y: 1}}; !slices.Equal(sc.sinks, want) {
		t.Errorf("sink tiles %v, want %v", sc.sinks, want)
	}
}

// TestPinsDedupLargeNet: the dedupe is linear in the sink count, so a net
// at netlist.MaxSinksPerNet sinks, every tile twice, dedupes at once.
func TestPinsDedupLargeNet(t *testing.T) {
	var sinks []geom.Pt
	for k := 0; k < netlist.MaxSinksPerNet; k++ {
		sinks = append(sinks, geom.Pt{X: k % 181, Y: (k / 2) % 181})
	}
	n := mkNet(0, geom.Pt{}, sinks...)
	var sc Scratch
	if err := sc.pins(n); err != nil {
		t.Fatal(err)
	}
	want := tilesOracle(n)
	if !slices.Equal(sc.st.Pts, want) {
		t.Fatalf("%d pin tiles, want %d", len(sc.st.Pts), len(want))
	}
}
