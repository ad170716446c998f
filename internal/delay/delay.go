// Package delay evaluates Elmore delay on buffered routed trees. The paper
// reports maximum and average source-to-sink delay to quantify timing (no
// timing constraints exist at the planning stage), so this evaluator is the
// measurement instrument behind the delay columns of Tables II-V.
//
// Model: every route-tree edge is one tile of wire with distributed RC
// (pi-model: the edge resistance sees half its own capacitance plus all
// downstream capacitance). The net's driver has resistance Tech.DriverRes;
// each sink loads its tile junction with Tech.SinkCap. Inserted buffers use
// Tech.Buffer: input capacitance decouples everything downstream of the
// buffer from the upstream gate, the output resistance and intrinsic delay
// start a new stage. Trunk buffers (Branch == -1) drive the node's whole
// junction; branch buffers drive a single child edge (Fig. 8).
package delay

import (
	"fmt"
	"math"

	"repro/internal/bufferdp"
	"repro/internal/rtree"
	"repro/internal/tech"
)

// Evaluator computes sink delays for routed trees on a particular tiling.
type Evaluator struct {
	Tech tech.Tech
	// TileUm is the tile side length in micrometers (one tree edge = one
	// tile of wire).
	TileUm float64
}

// NewEvaluator validates the technology and returns an evaluator.
func NewEvaluator(t tech.Tech, tileUm float64) (Evaluator, error) {
	if err := t.Validate(); err != nil {
		return Evaluator{}, err
	}
	if tileUm <= 0 {
		return Evaluator{}, fmt.Errorf("delay: tile size %g must be positive", tileUm)
	}
	return Evaluator{Tech: t, TileUm: tileUm}, nil
}

// Placed is a buffer with an explicit gate from the library, for the
// timing-driven flows that size buffers.
type Placed struct {
	Buf  bufferdp.Buffer
	Gate tech.Gate
}

// SinkDelays returns the Elmore delay in seconds from the net's driver to
// each sink, in the order of rt.SinkNode, with every buffer using the
// technology's single planning buffer.
func (e Evaluator) SinkDelays(rt *rtree.Tree, bufs []bufferdp.Buffer) ([]float64, error) {
	var sc Scratch
	return e.SinkDelaysInto(&sc, rt, bufs, nil)
}

// SinkDelaysSized is SinkDelays with an explicit gate per buffer, for
// timing-driven flows that choose sizes from a library.
func (e Evaluator) SinkDelaysSized(rt *rtree.Tree, bufs []Placed) ([]float64, error) {
	bs := make([]bufferdp.Buffer, len(bufs))
	gates := make([]tech.Gate, len(bufs))
	for k, pl := range bufs {
		bs[k], gates[k] = pl.Buf, pl.Gate
	}
	var sc Scratch
	return e.SinkDelaysInto(&sc, rt, bs, gates)
}

// Scratch is the reusable working memory of SinkDelaysInto: per-node
// arrays that grow to the largest tree seen. The zero value is ready to
// use; one Scratch serves one goroutine at a time.
type Scratch struct {
	// trunk[v] is the index in bufs of the trunk buffer at node v, and
	// branch[w] that of the branch buffer on the edge into child w (every
	// child has one parent, so the edge is named by its child); -1 means
	// none.
	trunk, branch []int32
	sinks         []int32 // sinks carried per node
	junction      []float64
	arrival       []float64
	order         []int
	out           []float64
}

// grow sizes the per-node arrays for n nodes and the result for m sinks.
func (sc *Scratch) grow(n, m int) {
	if cap(sc.trunk) < n {
		sc.trunk = make([]int32, n)
		sc.branch = make([]int32, n)
		sc.sinks = make([]int32, n)
		sc.junction = make([]float64, n)
		sc.arrival = make([]float64, n)
	}
	sc.trunk, sc.branch, sc.sinks = sc.trunk[:n], sc.branch[:n], sc.sinks[:n]
	sc.junction, sc.arrival = sc.junction[:n], sc.arrival[:n]
	if cap(sc.out) < m {
		sc.out = make([]float64, m)
	}
	sc.out = sc.out[:m]
}

// SinkDelaysInto is the allocation-free form of SinkDelays and
// SinkDelaysSized: gates, when non-nil, parallels bufs with each buffer's
// gate, and nil means every buffer is the planning buffer. The returned
// slice is owned by sc and valid until its next use.
//
// Loads are summed bottom-up over a post-order and arrival times pushed
// top-down over its reverse (every node after its parent). Each junction
// sum adds a node's children in index order, and each arrival is the same
// expression of its parent's arrival as in a recursive descent, so the
// results are bit-identical to it.
func (e Evaluator) SinkDelaysInto(sc *Scratch, rt *rtree.Tree, bufs []bufferdp.Buffer, gates []tech.Gate) ([]float64, error) {
	n := rt.NumNodes()
	if gates != nil && len(gates) != len(bufs) {
		return nil, fmt.Errorf("delay: %d gates for %d buffers", len(gates), len(bufs)) //rabid:allow allocfree cold argument-error path
	}
	sc.grow(n, len(rt.SinkNode))
	for v := range sc.trunk {
		sc.trunk[v], sc.branch[v], sc.sinks[v] = -1, -1, 0
	}
	for k, bf := range bufs {
		if bf.Node < 0 || bf.Node >= n {
			return nil, fmt.Errorf("delay: buffer node %d out of range", bf.Node) //rabid:allow allocfree cold corrupt-assignment path
		}
		if bf.Branch == -1 {
			sc.trunk[bf.Node] = int32(k) //rabid:allow narrowcast k < len(bufs): a few buffers per node of a tree over fewer than MaxInt32 grid tiles
			continue
		}
		if bf.Branch < 0 || bf.Branch >= n || rt.Parent[bf.Branch] != bf.Node {
			return nil, fmt.Errorf("delay: buffer branch %d is not a child of %d", bf.Branch, bf.Node) //rabid:allow allocfree cold corrupt-assignment path
		}
		sc.branch[bf.Branch] = int32(k) //rabid:allow narrowcast k < len(bufs): a few buffers per node of a tree over fewer than MaxInt32 grid tiles
	}
	for _, s := range rt.SinkNode {
		sc.sinks[s]++
	}
	gate := func(k int32) tech.Gate {
		if gates != nil {
			return gates[k]
		}
		return e.Tech.Buffer
	}
	t := e.Tech
	wireR := t.WireRes(e.TileUm)
	wireC := t.WireCap(e.TileUm)

	// junction[v]: capacitance at node v's junction (after a trunk buffer,
	// if any) looking down. nodeLoad(v): capacitance the incoming wire sees
	// at v.
	junction := sc.junction
	nodeLoad := func(v int) float64 {
		if k := sc.trunk[v]; k >= 0 {
			return gate(k).InCap
		}
		return junction[v]
	}
	sc.order = rt.PostOrderInto(sc.order)
	for _, v := range sc.order {
		c := float64(sc.sinks[v]) * t.SinkCap
		for _, w := range rt.Children(v) {
			if k := sc.branch[w]; k >= 0 {
				c += gate(k).InCap
			} else {
				c += wireC + nodeLoad(w)
			}
		}
		junction[v] = c
	}

	arrival := sc.arrival
	for i := range arrival {
		arrival[i] = math.NaN()
	}
	for i := len(sc.order) - 1; i >= 0; i-- {
		w := sc.order[i]
		if w == 0 {
			// The driver (or a buffer right at the source tile, which the
			// driver sees only through its input capacitance) starts the
			// first stage at the root junction.
			t0, rg := 0.0, t.DriverRes
			if k := sc.trunk[0]; k >= 0 {
				g := gate(k)
				t0, rg = t.DriverRes*g.InCap+g.Intrinsic, g.OutRes
			}
			arrival[0] = t0 + rg*junction[0]
			continue
		}
		tAt := arrival[rt.Parent[w]]
		var tw float64
		if k := sc.branch[w]; k >= 0 {
			// Dedicated buffer at the parent for this branch.
			g := gate(k)
			t1 := tAt + g.Intrinsic
			load := wireC + nodeLoad(w)
			tw = t1 + g.OutRes*load + wireR*(wireC/2+nodeLoad(w))
		} else {
			tw = tAt + wireR*(wireC/2+nodeLoad(w))
		}
		// Entering w's junction: a trunk buffer there starts a new stage.
		if k := sc.trunk[w]; k >= 0 {
			g := gate(k)
			t0 := tw + g.Intrinsic
			arrival[w] = t0 + g.OutRes*junction[w]
		} else {
			arrival[w] = tw
		}
	}

	for i, s := range rt.SinkNode {
		sc.out[i] = arrival[s]
	}
	return sc.out, nil
}

// Stats summarizes a set of per-sink delays.
type Stats struct {
	Max, Sum float64
	Count    int
	// NonFinite counts delays that were NaN or ±Inf and were therefore
	// excluded from Max/Sum/Count: a broken net's +Inf sentinel (see
	// core.refreshDelays) must never poison the aggregate delay columns.
	// Callers surface it as the "delay.nonfinite" telemetry counter.
	NonFinite int
}

// Add folds one net's sink delays into the stats, skipping (but counting)
// non-finite values.
func (s *Stats) Add(delays []float64) {
	for _, d := range delays {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			s.NonFinite++
			continue
		}
		if d > s.Max {
			s.Max = d
		}
		s.Sum += d
		s.Count++
	}
}

// Avg returns the mean sink delay, or zero with no sinks.
func (s Stats) Avg() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// MaxPs and AvgPs report in picoseconds, the unit of the paper's tables.
func (s Stats) MaxPs() float64 { return s.Max * 1e12 }

// AvgPs reports the mean sink delay in picoseconds.
func (s Stats) AvgPs() float64 { return s.Avg() * 1e12 }
