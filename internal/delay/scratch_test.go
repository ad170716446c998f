package delay

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bufferdp"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/tech"
)

// oracleBuffering is the oracle's per-tree view of an assignment.
type oracleBuffering struct {
	trunk  []*tech.Gate          // trunk buffer at node (nil = none)
	branch map[[2]int]*tech.Gate // branch buffer on edge (node, child)
}

func newOracleBuffering(rt *rtree.Tree, bufs []Placed) (oracleBuffering, error) {
	b := oracleBuffering{
		trunk:  make([]*tech.Gate, rt.NumNodes()),
		branch: map[[2]int]*tech.Gate{},
	}
	for _, pl := range bufs {
		bf := pl.Buf
		g := pl.Gate
		if bf.Node < 0 || bf.Node >= rt.NumNodes() {
			return b, fmt.Errorf("delay: buffer node %d out of range", bf.Node)
		}
		if bf.Branch == -1 {
			b.trunk[bf.Node] = &g
			continue
		}
		if bf.Branch < 0 || bf.Branch >= rt.NumNodes() || rt.Parent[bf.Branch] != bf.Node {
			return b, fmt.Errorf("delay: buffer branch %d is not a child of %d", bf.Branch, bf.Node)
		}
		b.branch[[2]int{bf.Node, bf.Branch}] = &g
	}
	return b, nil
}

// delaysOracle is the evaluator as it was before the Scratch arrays: a
// map of branch buffers keyed by edge, pointer-per-gate trunk buffers,
// and a recursive descent for arrival times. SinkDelaysInto must match it
// bit for bit.
func delaysOracle(e Evaluator, rt *rtree.Tree, bufs []Placed) ([]float64, error) {
	bf, err := newOracleBuffering(rt, bufs)
	if err != nil {
		return nil, err
	}
	t := e.Tech
	wireR := t.WireRes(e.TileUm)
	wireC := t.WireCap(e.TileUm)

	n := rt.NumNodes()
	// junction[v]: capacitance at node v's junction (after a trunk buffer,
	// if any) looking down.
	junction := make([]float64, n)
	// nodeLoad(v): capacitance the incoming wire sees at v.
	nodeLoad := func(v int) float64 {
		if g := bf.trunk[v]; g != nil {
			return g.InCap
		}
		return junction[v]
	}
	for _, v := range rt.PostOrder() {
		c := float64(rt.SinksAt(v)) * t.SinkCap
		for _, w := range rt.Children(v) {
			if g := bf.branch[[2]int{v, w}]; g != nil {
				c += g.InCap
			} else {
				c += wireC + nodeLoad(w)
			}
		}
		junction[v] = c
	}

	arrival := make([]float64, n)
	for i := range arrival {
		arrival[i] = math.NaN()
	}

	// descend propagates arrival times inside one gate stage starting at
	// node v's junction with arrival time tAt.
	var descend func(v int, tAt float64)
	// driveJunction starts a gate (driver or buffer) with output resistance
	// rg at node v's junction; t0 is the arrival at the gate input plus its
	// intrinsic delay.
	driveJunction := func(v int, rg, t0 float64) {
		descend(v, t0+rg*junction[v])
	}
	// enterNode handles arrival at node w's junction entry, accounting for
	// a trunk buffer there.
	enterNode := func(w int, tw float64) {
		if g := bf.trunk[w]; g != nil {
			driveJunction(w, g.OutRes, tw+g.Intrinsic)
		} else {
			descend(w, tw)
		}
	}
	descend = func(v int, tAt float64) {
		arrival[v] = tAt
		for _, w := range rt.Children(v) {
			if g := bf.branch[[2]int{v, w}]; g != nil {
				// Dedicated buffer at v for this branch.
				t1 := tAt + g.Intrinsic
				load := wireC + nodeLoad(w)
				tw := t1 + g.OutRes*load + wireR*(wireC/2+nodeLoad(w))
				enterNode(w, tw)
				continue
			}
			tw := tAt + wireR*(wireC/2+nodeLoad(w))
			enterNode(w, tw)
		}
	}
	if g := bf.trunk[0]; g != nil {
		// A buffer right at the source tile: the driver sees only its
		// input capacitance.
		t0 := t.DriverRes*g.InCap + g.Intrinsic
		driveJunction(0, g.OutRes, t0)
	} else {
		driveJunction(0, t.DriverRes, 0)
	}

	out := make([]float64, len(rt.SinkNode))
	for i, s := range rt.SinkNode {
		out[i] = arrival[s]
	}
	return out, nil
}

// randomNet builds a random route tree by a lattice random walk, with
// sinks on every leaf and on some internal tiles (one tile may carry two),
// and a random buffering of it: trunk buffers and branch buffers, each
// with a gate drawn from a small library, sometimes two on one spot (the
// later one wins, as in the evaluator).
func randomNet(r *rand.Rand, maxNodes int) (*rtree.Tree, []bufferdp.Buffer, []tech.Gate) {
	parent := map[geom.Pt]geom.Pt{}
	tiles := []geom.Pt{{}}
	for len(tiles) < maxNodes {
		base := tiles[r.Intn(len(tiles))]
		nxt := base.Add([4]geom.Pt{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}[r.Intn(4)])
		if _, ok := parent[nxt]; ok || nxt == (geom.Pt{}) {
			continue
		}
		parent[nxt] = base
		tiles = append(tiles, nxt)
	}
	hasKid := map[geom.Pt]bool{}
	for _, p := range parent {
		hasKid[p] = true
	}
	var sinks []geom.Pt
	for _, p := range tiles[1:] {
		if !hasKid[p] || r.Intn(5) == 0 {
			sinks = append(sinks, p)
			if r.Intn(8) == 0 {
				sinks = append(sinks, p)
			}
		}
	}
	if len(sinks) == 0 {
		sinks = []geom.Pt{{}}
	}
	rt, err := rtree.FromParentMap(geom.Pt{}, parent, sinks)
	if err != nil {
		panic(err)
	}
	lib := []tech.Gate{
		tech.Default018().Buffer,
		{OutRes: 200, InCap: 30e-15, Intrinsic: 20e-12},
		{OutRes: 900, InCap: 6e-15, Intrinsic: 35e-12},
	}
	var bufs []bufferdp.Buffer
	var gates []tech.Gate
	for v := 0; v < rt.NumNodes(); v++ {
		if r.Intn(4) == 0 {
			bufs = append(bufs, bufferdp.Buffer{Node: v, Branch: -1})
			gates = append(gates, lib[r.Intn(len(lib))])
		}
		for _, w := range rt.Children(v) {
			if r.Intn(5) == 0 {
				bufs = append(bufs, bufferdp.Buffer{Node: v, Branch: w})
				gates = append(gates, lib[r.Intn(len(lib))])
			}
		}
	}
	return rt, bufs, gates
}

// sameBits reports whether two delay vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestScratchDelaysMatchOracle runs one dirty Scratch over random trees of
// varying size and random sized buffering, and requires the sink delays to
// be bit-equal to a fresh call's and to the recursive map-based oracle's,
// with and without per-buffer gates.
func TestScratchDelaysMatchOracle(t *testing.T) {
	e, err := NewEvaluator(tech.Default018(), 400)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	r := rand.New(rand.NewSource(11))
	for it := 0; it < 500; it++ {
		rt, bufs, gates := randomNet(r, 1+r.Intn(70))
		placed := make([]Placed, len(bufs))
		single := make([]Placed, len(bufs))
		for k := range bufs {
			placed[k] = Placed{Buf: bufs[k], Gate: gates[k]}
			single[k] = Placed{Buf: bufs[k], Gate: e.Tech.Buffer}
		}
		for _, c := range []struct {
			gates  []tech.Gate
			placed []Placed
		}{{nil, single}, {gates, placed}} {
			got, err := e.SinkDelaysInto(&sc, rt, bufs, c.gates)
			if err != nil {
				t.Fatal(err)
			}
			got = append([]float64(nil), got...)
			var fresh Scratch
			again, err := e.SinkDelaysInto(&fresh, rt, bufs, c.gates)
			if err != nil {
				t.Fatal(err)
			}
			want, err := delaysOracle(e, rt, c.placed)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, again) || !sameBits(got, want) {
				t.Fatalf("iteration %d (n=%d, %d buffers, sized=%v):\n got    %v\n fresh  %v\n oracle %v",
					it, rt.NumNodes(), len(bufs), c.gates != nil, got, again, want)
			}
		}
	}
}

// TestSinkDelaysZeroAllocSteadyState: with a warmed Scratch, evaluating a
// buffered tree allocates nothing.
func TestSinkDelaysZeroAllocSteadyState(t *testing.T) {
	e, err := NewEvaluator(tech.Default018(), 400)
	if err != nil {
		t.Fatal(err)
	}
	rt, bufs, gates := randomNet(rand.New(rand.NewSource(2)), 80)
	var sc Scratch
	if _, err := e.SinkDelaysInto(&sc, rt, bufs, gates); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := e.SinkDelaysInto(&sc, rt, bufs, gates); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("SinkDelaysInto with a warmed scratch: %v allocs/run, want 0", avg)
	}
}
