package rtree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// chain builds a straight horizontal route source (0,0) .. (n-1,0) with a
// sink at the far end.
func chain(n int) *Tree {
	parent := map[geom.Pt]geom.Pt{}
	for x := 1; x < n; x++ {
		parent[geom.Pt{X: x}] = geom.Pt{X: x - 1}
	}
	t, err := FromParentMap(geom.Pt{}, parent, []geom.Pt{{X: n - 1}})
	if err != nil {
		panic(err)
	}
	return t
}

// tee builds a T: source (0,0) to (2,0), branching at (1,0) up to (1,2);
// sinks at (2,0) and (1,2).
func tee() *Tree {
	p := map[geom.Pt]geom.Pt{
		{X: 1, Y: 0}: {X: 0, Y: 0},
		{X: 2, Y: 0}: {X: 1, Y: 0},
		{X: 1, Y: 1}: {X: 1, Y: 0},
		{X: 1, Y: 2}: {X: 1, Y: 1},
	}
	t, err := FromParentMap(geom.Pt{}, p, []geom.Pt{{X: 2, Y: 0}, {X: 1, Y: 2}})
	if err != nil {
		panic(err)
	}
	return t
}

func TestFromParentMapChain(t *testing.T) {
	tr := chain(5)
	if tr.NumNodes() != 5 || tr.NumEdges() != 4 {
		t.Fatalf("nodes/edges = %d/%d", tr.NumNodes(), tr.NumEdges())
	}
	if err := tr.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if len(tr.SinkNode) != 1 || tr.Tile[tr.SinkNode[0]] != (geom.Pt{X: 4}) {
		t.Error("sink node wrong")
	}
}

func TestFromParentMapErrors(t *testing.T) {
	// Orphan tile.
	_, err := FromParentMap(geom.Pt{}, map[geom.Pt]geom.Pt{{X: 5}: {X: 4}}, nil)
	if err == nil {
		t.Error("orphan chain accepted")
	}
	// Non-adjacent parent.
	_, err = FromParentMap(geom.Pt{}, map[geom.Pt]geom.Pt{{X: 2}: {X: 0}}, nil)
	if err == nil {
		t.Error("non-adjacent parent accepted")
	}
	// Sink off route.
	_, err = FromParentMap(geom.Pt{}, map[geom.Pt]geom.Pt{{X: 1}: {X: 0}}, []geom.Pt{{X: 3}})
	if err == nil {
		t.Error("off-route sink accepted")
	}
}

func TestSourceIsSinkTile(t *testing.T) {
	tr, err := FromParentMap(geom.Pt{}, map[geom.Pt]geom.Pt{{X: 1}: {X: 0}}, []geom.Pt{{X: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.SinkNode[0] != 0 {
		t.Error("sink at source tile should map to node 0")
	}
}

func TestChildrenAndPostOrder(t *testing.T) {
	tr := tee()
	if err := tr.Validate(nil); err != nil {
		t.Fatal(err)
	}
	po := tr.PostOrder()
	if len(po) != tr.NumNodes() {
		t.Fatalf("post order has %d entries", len(po))
	}
	if po[len(po)-1] != 0 {
		t.Error("root must come last in post order")
	}
	pos := make([]int, tr.NumNodes())
	for i, v := range po {
		pos[v] = i
	}
	for v := 1; v < tr.NumNodes(); v++ {
		if pos[v] > pos[tr.Parent[v]] {
			t.Errorf("node %d appears after its parent", v)
		}
	}
	// The branch node (1,0) must have two children.
	for v, tl := range tr.Tile {
		if tl == (geom.Pt{X: 1, Y: 0}) && len(tr.Children(v)) != 2 {
			t.Errorf("branch node has %d children", len(tr.Children(v)))
		}
	}
}

func TestSinkQueries(t *testing.T) {
	tr := tee()
	sinks := 0
	for v := range tr.Tile {
		sinks += tr.SinksAt(v)
		if tr.SinksAt(v) > 0 != tr.IsSink(v) {
			t.Errorf("IsSink/SinksAt disagree at %d", v)
		}
	}
	if sinks != 2 {
		t.Errorf("total sinks = %d", sinks)
	}
}

func TestEdgePairsAdjacent(t *testing.T) {
	tr := tee()
	pairs := tr.EdgePairs()
	if len(pairs) != tr.NumEdges() {
		t.Fatalf("EdgePairs len %d", len(pairs))
	}
	for _, pq := range pairs {
		if pq[0].Manhattan(pq[1]) != 1 {
			t.Errorf("pair %v not adjacent", pq)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := tee()
	tr.Tile[2] = tr.Tile[1]
	if err := tr.Validate(nil); err == nil {
		t.Error("duplicate tile accepted")
	}
	tr = tee()
	tr.Parent[0] = 0
	if err := tr.Validate(nil); err == nil {
		t.Error("bad root accepted")
	}
	tr = tee()
	tr.SinkNode[0] = 99
	if err := tr.Validate(nil); err == nil {
		t.Error("sink out of range accepted")
	}
	tr = tee()
	if err := tr.Validate(func(p geom.Pt) bool { return p.X < 2 }); err == nil {
		t.Error("out-of-grid tile accepted")
	}
}

func TestPruneRemovesStubs(t *testing.T) {
	// Route with a dangling stub off the main chain.
	p := map[geom.Pt]geom.Pt{
		{X: 1, Y: 0}: {X: 0, Y: 0},
		{X: 2, Y: 0}: {X: 1, Y: 0},
		{X: 1, Y: 1}: {X: 1, Y: 0}, // stub
		{X: 1, Y: 2}: {X: 1, Y: 1}, // stub
	}
	tr, err := FromParentMap(geom.Pt{}, p, []geom.Pt{{X: 2, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	pruned := tr.Prune()
	if pruned.NumNodes() != 3 {
		t.Fatalf("pruned to %d nodes, want 3", pruned.NumNodes())
	}
	if err := pruned.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 5 {
		t.Error("Prune mutated the receiver")
	}
	want := []geom.Pt{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	if !reflect.DeepEqual(pruned.Tile, want) {
		t.Errorf("pruned tiles = %v", pruned.Tile)
	}
	if pruned.Tile[pruned.SinkNode[0]] != (geom.Pt{X: 2, Y: 0}) {
		t.Error("sink remap wrong")
	}
}

func TestPruneKeepsSinkLeaves(t *testing.T) {
	tr := tee()
	pruned := tr.Prune()
	if pruned.NumNodes() != tr.NumNodes() {
		t.Error("Prune removed needed nodes")
	}
}

func TestTwoPathsTee(t *testing.T) {
	tr := tee()
	paths := tr.TwoPaths()
	// Tee: source->(1,0) [branch], (1,0)->(2,0), (1,0)->(1,2).
	if len(paths) != 3 {
		t.Fatalf("got %d two-paths: %v", len(paths), paths)
	}
	for _, p := range paths {
		if len(p) < 2 {
			t.Errorf("degenerate path %v", p)
		}
		// Interior nodes must be degree-2 non-sinks.
		for _, v := range p[1 : len(p)-1] {
			if len(tr.Children(v)) != 1 || tr.IsSink(v) {
				t.Errorf("path %v has invalid interior %d", p, v)
			}
		}
	}
}

func TestTwoPathsChain(t *testing.T) {
	tr := chain(6)
	paths := tr.TwoPaths()
	if len(paths) != 1 || len(paths[0]) != 6 {
		t.Fatalf("chain two-paths = %v", paths)
	}
	if paths[0][0] != 0 {
		t.Error("path must start at the head (root side)")
	}
	tiles := tr.PathTiles(paths[0])
	if tiles[0] != (geom.Pt{}) || tiles[5] != (geom.Pt{X: 5}) {
		t.Errorf("PathTiles = %v", tiles)
	}
}

// randomTreeMap builds a random connected route by a lattice random walk.
func randomTreeMap(r *rand.Rand, steps int) (map[geom.Pt]geom.Pt, []geom.Pt) {
	parent := map[geom.Pt]geom.Pt{}
	cur := geom.Pt{}
	visited := []geom.Pt{cur}
	for i := 0; i < steps; i++ {
		// Restart from a random visited tile to create branches.
		cur = visited[r.Intn(len(visited))]
		d := [4]geom.Pt{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}[r.Intn(4)]
		nxt := cur.Add(d)
		if nxt == (geom.Pt{}) {
			continue
		}
		if _, ok := parent[nxt]; ok {
			continue
		}
		parent[nxt] = cur
		visited = append(visited, nxt)
	}
	sinks := []geom.Pt{visited[len(visited)-1]}
	return parent, sinks
}

func TestRandomTreesInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pm, sinks := randomTreeMap(r, 1+r.Intn(60))
		tr, err := FromParentMap(geom.Pt{}, pm, sinks)
		if err != nil {
			return false
		}
		if tr.Validate(nil) != nil {
			return false
		}
		if tr.NumNodes() != len(pm)+1 {
			return false
		}
		// Two-paths partition the edge set.
		edges := 0
		for _, p := range tr.TwoPaths() {
			edges += len(p) - 1
		}
		if edges != tr.NumEdges() {
			return false
		}
		// Prune keeps validity and all sinks reachable.
		pr := tr.Prune()
		return pr.Validate(nil) == nil && len(pr.SinkNode) == len(tr.SinkNode)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSingleTileTree(t *testing.T) {
	tr, err := FromParentMap(geom.Pt{X: 3, Y: 3}, nil, []geom.Pt{{X: 3, Y: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 || tr.NumEdges() != 0 {
		t.Error("single-tile tree malformed")
	}
	if len(tr.TwoPaths()) != 0 {
		t.Error("single node has no two-paths")
	}
	if got := tr.Prune(); got.NumNodes() != 1 {
		t.Error("prune broke single node")
	}
}

// TestRecycledTreeTraversals: a tree whose adjacency was built, then Reset
// and refilled with another shape (a recycled carcass), traverses exactly
// like a freshly built tree of that shape, and the Into forms match their
// allocating counterparts on a dirty buffer. A fresh tree's traversal pays
// exactly one allocation, for its child adjacency; a recycled tree's none.
func TestRecycledTreeTraversals(t *testing.T) {
	var post []int
	var ps TwoPathSet
	carcass := &Tree{}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		pm, sinks := randomTreeMap(r, 1+r.Intn(60))
		fresh, err := FromParentMap(geom.Pt{}, pm, sinks)
		if err != nil {
			t.Fatal(err)
		}
		carcass.Reset()
		carcass.Tile = append(carcass.Tile, fresh.Tile...)
		carcass.Parent = append(carcass.Parent, fresh.Parent...)
		carcass.SinkNode = append(carcass.SinkNode, fresh.SinkNode...)
		want := fresh.PostOrder()
		post = carcass.PostOrderInto(post)
		if !reflect.DeepEqual(post, want) {
			t.Fatalf("seed %d: recycled post-order %v, want %v", seed, post, want)
		}
		for v := range fresh.Tile {
			if got, want := carcass.Children(v), fresh.Children(v); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: node %d children %v, want %v", seed, v, got, want)
			}
		}
		carcass.TwoPathsInto(&ps)
		wantPaths := fresh.TwoPaths()
		if ps.Len() != len(wantPaths) {
			t.Fatalf("seed %d: %d two-paths, want %d", seed, ps.Len(), len(wantPaths))
		}
		for k, p := range wantPaths {
			if !reflect.DeepEqual(ps.Path(k), p) {
				t.Fatalf("seed %d: two-path %d = %v, want %v", seed, k, ps.Path(k), p)
			}
			// The documented order, which the pick order of Stage 4
			// follows: by head, then by the next node.
			if q := ps.Path(max(k-1, 0)); k > 0 && (q[0] > p[0] || q[0] == p[0] && q[1] >= p[1]) {
				t.Fatalf("seed %d: two-paths %v and %v out of order", seed, q, p)
			}
		}
	}
	pm, sinks := randomTreeMap(rand.New(rand.NewSource(99)), 60)
	shape, err := FromParentMap(geom.Pt{}, pm, sinks)
	if err != nil {
		t.Fatal(err)
	}
	post = make([]int, 0, shape.NumNodes())
	copies := make([]*Tree, 11) // AllocsPerRun's warm-up call, then 10
	for k := range copies {
		copies[k] = &Tree{Tile: shape.Tile, Parent: shape.Parent, SinkNode: shape.SinkNode}
	}
	k := 0
	if avg := testing.AllocsPerRun(10, func() {
		post = copies[k].PostOrderInto(post)
		k++
	}); avg != 1 {
		t.Errorf("PostOrderInto on a fresh tree: %v allocs, want 1", avg)
	}
	if avg := testing.AllocsPerRun(10, func() {
		carcass.Reset()
		carcass.Tile = append(carcass.Tile, shape.Tile...)
		carcass.Parent = append(carcass.Parent, shape.Parent...)
		carcass.SinkNode = append(carcass.SinkNode, shape.SinkNode...)
		post = carcass.PostOrderInto(post)
	}); avg != 0 {
		t.Errorf("PostOrderInto on a recycled tree: %v allocs, want 0", avg)
	}
}
