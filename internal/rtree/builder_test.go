package rtree

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
)

// fromParentMapOracle is the map-based FromParentMap that Builder
// replaced: a recursive parent-first insert over the keys sorted by
// (Y, X). Builder must number every tree as it does. It does not terminate
// on a cyclic map.
func fromParentMapOracle(source geom.Pt, parent map[geom.Pt]geom.Pt, sinks []geom.Pt) (*Tree, error) {
	index := map[geom.Pt]int{source: 0}
	t := &Tree{Tile: []geom.Pt{source}, Parent: []int{-1}}
	var insert func(p geom.Pt) (int, error)
	insert = func(p geom.Pt) (int, error) {
		if i, ok := index[p]; ok {
			return i, nil
		}
		pp, ok := parent[p]
		if !ok {
			return 0, fmt.Errorf("rtree: tile %v has no parent and is not the source", p)
		}
		if pp.Manhattan(p) != 1 {
			return 0, fmt.Errorf("rtree: parent %v not adjacent to %v", pp, p)
		}
		pi, err := insert(pp)
		if err != nil {
			return 0, err
		}
		i := len(t.Tile)
		index[p] = i
		t.Tile = append(t.Tile, p)
		t.Parent = append(t.Parent, pi)
		return i, nil
	}
	keys := make([]geom.Pt, 0, len(parent))
	for p := range parent {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Y != keys[b].Y {
			return keys[a].Y < keys[b].Y
		}
		return keys[a].X < keys[b].X
	})
	for _, p := range keys {
		if _, err := insert(p); err != nil {
			return nil, err
		}
	}
	for _, s := range sinks {
		i, ok := index[s]
		if !ok {
			return nil, fmt.Errorf("rtree: sink tile %v not on route", s)
		}
		t.SinkNode = append(t.SinkNode, i)
	}
	return t, nil
}

// pruneOracle is the leaf-peeling Prune that Builder's prune replaced: it
// removes childless, sinkless non-root nodes until none remain and rebuilds
// the survivors densely in their original order.
func pruneOracle(t *Tree) *Tree {
	n := len(t.Tile)
	deg := make([]int, n)
	for v := 1; v < n; v++ {
		deg[t.Parent[v]]++
	}
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	isSink := make([]bool, n)
	for _, s := range t.SinkNode {
		isSink[s] = true
	}
	queue := []int{}
	for v := 1; v < n; v++ {
		if deg[v] == 0 && !isSink[v] {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		keep[v] = false
		p := t.Parent[v]
		deg[p]--
		if p != 0 && deg[p] == 0 && !isSink[p] && keep[p] {
			queue = append(queue, p)
		}
	}
	remap := make([]int, n)
	for i := range remap {
		remap[i] = -1
	}
	nt := &Tree{}
	for v := 0; v < n; v++ {
		if !keep[v] {
			continue
		}
		remap[v] = len(nt.Tile)
		nt.Tile = append(nt.Tile, t.Tile[v])
		if v == 0 {
			nt.Parent = append(nt.Parent, -1)
		} else {
			nt.Parent = append(nt.Parent, remap[t.Parent[v]])
		}
	}
	for _, s := range t.SinkNode {
		nt.SinkNode = append(nt.SinkNode, remap[s])
	}
	return nt
}

// sameTree reports whether two trees are node-identical.
func sameTree(a, b *Tree) bool {
	return slices.Equal(a.Tile, b.Tile) && slices.Equal(a.Parent, b.Parent) && slices.Equal(a.SinkNode, b.SinkNode)
}

// randomCase grows a random route from a random source by a lattice walk
// with branching restarts, then applies one of the cases the builder must
// agree with the oracle on: sinks on a few tiles only (stubs to prune),
// co-located sinks, a sink at the root, a key equal to the source, an
// orphan chain, a non-adjacent parent, or a sink off the route.
func randomCase(r *rand.Rand) (src geom.Pt, parent map[geom.Pt]geom.Pt, sinks []geom.Pt, kind string) {
	src = geom.Pt{X: r.Intn(7) - 3, Y: r.Intn(7) - 3}
	parent = map[geom.Pt]geom.Pt{}
	visited := []geom.Pt{src}
	dirs := [4]geom.Pt{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}
	for i, steps := 0, r.Intn(60); i < steps; i++ {
		cur := visited[r.Intn(len(visited))]
		nxt := cur.Add(dirs[r.Intn(4)])
		if _, ok := parent[nxt]; ok || nxt == src {
			continue
		}
		parent[nxt] = cur
		visited = append(visited, nxt)
	}
	for _, p := range visited[1:] {
		if r.Intn(4) == 0 {
			sinks = append(sinks, p)
		}
	}
	pick := func() geom.Pt { return visited[r.Intn(len(visited))] }
	kinds := []string{"stubs", "colocated", "sink-at-root", "source-key", "no-parent", "non-adjacent", "off-route"}
	kind = kinds[r.Intn(len(kinds))]
	switch kind {
	case "colocated":
		s := pick()
		sinks = append(sinks, s, s)
	case "sink-at-root":
		sinks = append(sinks, src)
	case "source-key":
		// The source's own entry is ignored, even one whose parent lies
		// far outside the route.
		parent[src] = src.Add(geom.Pt{X: r.Intn(201) - 100, Y: 1})
	case "no-parent":
		// An entry whose parent is neither a key nor the source.
		for {
			o := pick().Add(geom.Pt{X: r.Intn(5) - 2, Y: r.Intn(5) - 2})
			k := o.Add(dirs[r.Intn(4)])
			if _, ok := parent[o]; !ok && o != src && k != src {
				if _, ok := parent[k]; !ok {
					parent[k] = o
					break
				}
			}
		}
	case "non-adjacent":
		if len(visited) > 1 {
			p := visited[1+r.Intn(len(visited)-1)]
			d := dirs[r.Intn(4)]
			parent[p] = p.Add(d).Add(d)
		}
	case "off-route":
		sinks = append(sinks, pick().Add(geom.Pt{X: 40 * (r.Intn(3) - 1), Y: 1}))
	}
	if r.Intn(2) == 0 {
		r.Shuffle(len(sinks), func(i, j int) { sinks[i], sinks[j] = sinks[j], sinks[i] })
	}
	return src, parent, sinks, kind
}

// TestBuilderMatchesOracle runs one dirty Builder over random parent maps
// and requires every tree to be node-identical to the map-based oracle's,
// pruned and unpruned, and both sides to err on the same inputs.
func TestBuilderMatchesOracle(t *testing.T) {
	var b Builder
	nt := &Tree{}
	kinds := map[string]int{}
	for seed := int64(0); seed < 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		src, parent, sinks, kind := randomCase(r)
		want, werr := fromParentMapOracle(src, parent, sinks)
		got, gerr := FromParentMap(src, parent, sinks)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("seed %d (%s): oracle err %v, FromParentMap err %v", seed, kind, werr, gerr)
		}
		// The builder itself, dirty from the previous seed, framed on the
		// map's box and building into a recycled tree.
		lo, hi := src, src
		for p, pp := range parent {
			lo, hi = geom.Bounds(lo, hi, []geom.Pt{p, pp})
		}
		if err := b.Frame(lo, hi); err != nil {
			t.Fatal(err)
		}
		for p, pp := range parent {
			b.Set(b.Cell(p), b.Cell(pp))
		}
		berr := b.Build(nt, src, sinks)
		if (werr != nil) != (berr != nil) {
			t.Fatalf("seed %d (%s): oracle err %v, Build err %v", seed, kind, werr, berr)
		}
		if werr != nil {
			kinds[kind+" (err)"]++
			continue
		}
		kinds[kind]++
		if !sameTree(got, want) {
			t.Fatalf("seed %d (%s): FromParentMap differs from oracle\n got  %v %v %v\n want %v %v %v",
				seed, kind, got.Tile, got.Parent, got.SinkNode, want.Tile, want.Parent, want.SinkNode)
		}
		pruned := pruneOracle(want)
		if !sameTree(nt, pruned) {
			t.Fatalf("seed %d (%s): Build differs from oracle\n got  %v %v %v\n want %v %v %v",
				seed, kind, nt.Tile, nt.Parent, nt.SinkNode, pruned.Tile, pruned.Parent, pruned.SinkNode)
		}
		if !sameTree(got.Prune(), pruned) {
			t.Fatalf("seed %d (%s): Prune differs from oracle", seed, kind)
		}
		if err := nt.Validate(nil); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, kind, err)
		}
	}
	for _, k := range []string{"stubs", "colocated", "sink-at-root", "source-key", "no-parent (err)", "non-adjacent (err)", "off-route (err)"} {
		if kinds[k] == 0 {
			t.Errorf("no %s case was exercised: %v", k, kinds)
		}
	}
}

// TestFromParentMapRejectsCycle: a two-tile cycle off the source used to
// recurse until the process died of a stack overflow, which no recover
// catches. The builder's cycle guard returns an error.
func TestFromParentMapRejectsCycle(t *testing.T) {
	cyclic := map[geom.Pt]geom.Pt{{X: 1}: {X: 2}, {X: 2}: {X: 1}}
	_, err := FromParentMap(geom.Pt{}, cyclic, nil)
	if err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("cyclic parent map: err %v, want a cycle error", err)
	}
}

// TestFromParentMapFarApartAllocBound: two one-edge components far apart
// cannot form a tree, and are refused before any array is sized to their
// box — the call allocates O(entries), not O(box). At 2^9 tiles apart the
// box has 263,169 cells (6 MB of builder arrays); at 2^30 it has more than
// MaxInt32.
func TestFromParentMapFarApartAllocBound(t *testing.T) {
	for _, d := range []int{1 << 9, 1 << 30} {
		far := map[geom.Pt]geom.Pt{
			{X: 1}:       {},
			{X: d, Y: d}: {X: d - 1, Y: d},
		}
		call := func() {
			if _, err := FromParentMap(geom.Pt{}, far, nil); err == nil {
				t.Fatalf("parent map with components %d tiles apart accepted", d)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(20, call)
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / 21 // AllocsPerRun's warm-up call, then 20
		if allocs > 16 || perCall > 64<<10 {
			t.Fatalf("components %d tiles apart: %v allocs and %d bytes per call, want <= 16 and <= 64 KiB", d, allocs, perCall)
		}
	}
}

// TestFrameRejectsHugeBox: a box over MaxInt32 cells, or with coordinates
// whose difference overflows int, is refused rather than sized.
func TestFrameRejectsHugeBox(t *testing.T) {
	var b Builder
	for _, box := range [][2]geom.Pt{
		{{}, {X: 1 << 16, Y: 1 << 16}},
		{{X: -1 << 62}, {X: 1 << 62}},
		{{X: 1}, {}},
	} {
		if err := b.Frame(box[0], box[1]); err == nil {
			t.Errorf("box %v..%v accepted", box[0], box[1])
		}
	}
}
