package bufferdp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// randomSinkTree is randomTree with sinks on some internal nodes as well
// as on every leaf (a route passing through a sink tile), and sometimes on
// the root.
func randomSinkTree(r *rand.Rand, maxNodes int) *rtree.Tree {
	rt := randomTree(r, maxNodes)
	for v := 0; v < rt.NumNodes(); v++ {
		if len(rt.Children(v)) > 0 && r.Intn(5) == 0 {
			rt.SinkNode = append(rt.SinkNode, v)
		}
	}
	return rt
}

// randomLibUpTo draws 1-4 library gates with length constraints up to
// maxL, mixed cost scales (zero included) and a coin-flip inverting flag.
func randomLibUpTo(r *rand.Rand, maxL int) []LibGate {
	lib := make([]LibGate, 1+r.Intn(4))
	for i := range lib {
		lib[i] = LibGate{L: 1 + r.Intn(maxL), CostScale: r.Float64() * 2, Invert: r.Intn(3) == 0}
		if r.Intn(8) == 0 {
			lib[i].CostScale = 0
		}
	}
	return lib
}

// sameAssignment reports whether two assignments agree bit for bit: the
// cost's float64 bits, the buffers and gates in order, and the violations.
func sameAssignment(a, b Assignment) bool {
	return math.Float64bits(a.Cost) == math.Float64bits(b.Cost) &&
		a.Violations == b.Violations &&
		reflect.DeepEqual(a.Buffers, b.Buffers) &&
		reflect.DeepEqual(a.Gates, b.Gates)
}

// rowCapActive reports whether the library DP's row cap binds: the
// longest gate or driver constraint M exceeds the node count.
func rowCapActive(n, L int, lib []LibGate) bool {
	m := L
	for _, g := range lib {
		m = max(m, g.L)
	}
	return m > n
}

// TestLibScratchMatchesOracle runs one dirty LibScratch over random trees
// (degree-one chains, internal sinks, +Inf tiles) and random libraries
// with inverters, and requires every Assignment to equal the pre-arena
// oracle's bit for bit, and the DPStats too where the row cap does not
// bind. Sizes, L and library widths go up and down, so rows are reused at
// other widths over stale cells.
func TestLibScratchMatchesOracle(t *testing.T) {
	testLibScratchMatchesOracle(t, 11, 3000, func(r *rand.Rand, n int) int { return 10 })
}

// TestLibRowCapMatchesOracle is the row-width lemma's check: with gate
// constraints up to 4n, mostly past the node count, the capped rows must
// still give the uncapped oracle's Assignment bit for bit.
func TestLibRowCapMatchesOracle(t *testing.T) {
	capped := testLibScratchMatchesOracle(t, 12, 2000, func(r *rand.Rand, n int) int { return 4 * n })
	if capped < 1000 {
		t.Fatalf("the row cap bound in only %d of 2000 trials; the test needs more", capped)
	}
}

// testLibScratchMatchesOracle runs the oracle comparison over trials
// random cases whose gate constraints are drawn up to maxL(r, n) for an
// n-node tree, and returns how many of them the row cap bound.
func testLibScratchMatchesOracle(t *testing.T, seed int64, trials int, maxL func(r *rand.Rand, n int) int) int {
	t.Helper()
	var sc LibScratch
	r := rand.New(rand.NewSource(seed))
	capped := 0
	for it := 0; it < trials; it++ {
		rt := randomSinkTree(r, 1+r.Intn(30))
		L := 1 + r.Intn(8)
		lib := randomLibUpTo(r, maxL(r, rt.NumNodes()))
		q := qFromSlice(randomSiteCosts(r, rt.NumNodes()))
		active := rowCapActive(rt.NumNodes(), L, lib)
		if active {
			capped++
		}
		var stGot, stWant DPStats
		got, err := sc.AssignLib(rt, L, lib, q, &stGot)
		if err != nil {
			t.Fatal(err)
		}
		want, err := assignLibOracle(rt, L, lib, q, &stWant)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAssignment(got, want) || (!active && stGot != stWant) {
			t.Fatalf("trial %d (n=%d, L=%d, lib=%+v, capped %v): scratch differs from oracle\n got  %+v %+v\n want %+v %+v",
				it, rt.NumNodes(), L, lib, active, got, stGot, want, stWant)
		}
		if (got.Gates == nil) != (want.Gates == nil) || (got.Buffers == nil) != (want.Buffers == nil) {
			t.Fatalf("trial %d: nil-ness of Buffers/Gates differs from oracle", it)
		}
		if sc.w > max(L, rt.NumNodes())+1 {
			t.Fatalf("trial %d: rows of %d cells per plane for n=%d, L=%d", it, sc.w, rt.NumNodes(), L)
		}
	}
	return capped
}

// TestLibGateWorkIsBounded: one library gate whose constraint clamps to
// MaxInt16 (a near-zero output resistance) used to make every row 32,768
// cells wide, and one call on this 119-node comb took minutes. Rows are
// now at most n+1 cells, and the Assignment equals the one with the gate
// at L = n.
func TestLibGateWorkIsBounded(t *testing.T) {
	// A spine of 40 tiles along y = 0 from the source, a two-tile tooth at
	// every spine tile but the first, and a one-tile tooth at the source:
	// 40 + 39*2 + 1 = 119 nodes, a sink on every tooth tip.
	parent := map[geom.Pt]geom.Pt{{X: 0, Y: 1}: {}}
	sinks := []geom.Pt{{X: 0, Y: 1}}
	for x := 1; x < 40; x++ {
		parent[geom.Pt{X: x}] = geom.Pt{X: x - 1}
		parent[geom.Pt{X: x, Y: 1}] = geom.Pt{X: x}
		parent[geom.Pt{X: x, Y: 2}] = geom.Pt{X: x, Y: 1}
		sinks = append(sinks, geom.Pt{X: x, Y: 2})
	}
	rt, err := rtree.FromParentMap(geom.Pt{}, parent, sinks)
	if err != nil {
		t.Fatal(err)
	}
	n := rt.NumNodes()
	if n != 119 {
		t.Fatalf("comb has %d nodes, want 119", n)
	}
	qs := make([]float64, n)
	for v := range qs {
		qs[v] = 1 + float64(v%5)*0.3
		if v%7 == 3 {
			qs[v] = math.Inf(1)
		}
	}
	q := qFromSlice(qs)
	const L = 6
	var sc LibScratch
	got, err := sc.AssignLib(rt, L, []LibGate{{L: L, CostScale: 1}, {L: math.MaxInt16, CostScale: 1}}, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.w > n+1 {
		t.Fatalf("rows of %d cells per plane for a %d-node tree, want <= %d", sc.w, n, n+1)
	}
	want, err := assignLibOracle(rt, L, []LibGate{{L: L, CostScale: 1}, {L: n, CostScale: 1}}, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAssignment(got, want) {
		t.Fatalf("capped huge gate differs from the gate at L = n\n got  %+v\n want %+v", got, want)
	}
}

// TestAssignLibZeroAllocSteadyState: with a warmed LibScratch, a library
// DP run allocates exactly twice — the returned Buffers and Gates slices.
func TestAssignLibZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rt := randomTree(r, 60)
	qs := make([]float64, rt.NumNodes())
	for v := range qs {
		qs[v] = 1 + float64(v%3)
	}
	q := qFromSlice(qs)
	lib := []LibGate{{L: 3, CostScale: 1}, {L: 5, CostScale: 2}, {L: 4, CostScale: 0.8, Invert: true}}
	var sc LibScratch
	var st DPStats
	a, err := sc.AssignLib(rt, 3, lib, q, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Buffers) == 0 {
		t.Fatal("workload places no buffers; the contract needs a non-empty result")
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := sc.AssignLib(rt, 3, lib, q, &st); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 2 {
		t.Fatalf("LibScratch.AssignLib with a warmed scratch: %v allocs/run, want exactly 2 (the Buffers and Gates slices)", avg)
	}
	// A result without buffers allocates nothing: its empty Gates slice is
	// not a heap object.
	one, err := rtree.FromParentMap(geom.Pt{}, map[geom.Pt]geom.Pt{}, []geom.Pt{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.AssignLib(one, 3, lib, q, nil); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := sc.AssignLib(one, 3, lib, q, nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("LibScratch.AssignLib without buffers: %v allocs/run, want 0", avg)
	}
}
