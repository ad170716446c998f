// Package mcf implements a multicommodity-flow-based global router in the
// style of Albrecht (ISPD 2000), the alternative the paper names for its
// Stages 1-2: "one could alternatively begin with the solution from any
// global router, e.g., the multicommodity flow-based approach of [1]".
//
// The algorithm is the Garg–Könemann/Fleischer fractional approximation of
// maximum concurrent flow, specialized to min-max edge congestion: every
// phase routes each net once along a (near-)minimum-length Steiner tree
// under exponential edge lengths, then inflates the lengths of the used
// edges proportionally to how much capacity the tree consumed. The
// per-phase trees form a fractional routing; randomized rounding (seeded)
// selects one tree per net, and the fractional congestion provides a lower
// bound certificate for the rounded solution's quality.
package mcf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/rtree"
	"repro/internal/tile"
)

// The defaults of Options.Phases and Options.Epsilon, which a zero value
// selects.
const (
	DefaultPhases  = 12
	DefaultEpsilon = 0.3
)

// Options tunes the approximation.
type Options struct {
	// Phases is the number of routing phases (0 = DefaultPhases). More
	// phases tighten the fractional solution at linear cost.
	Phases int
	// Epsilon is the exponential length step (0 = DefaultEpsilon).
	Epsilon float64
	// Seed drives the randomized rounding.
	Seed int64
	// SiteWeight couples buffer-site scarcity into the length system —
	// the buffered-routing coupling of Albrecht–Kahng–Măndoiu–Zelikovsky,
	// where wire congestion and buffer availability are priced jointly.
	// Each edge's initial length is scaled by 1 + SiteWeight*scarcity(e),
	// with scarcity(e) the average of 1/(1+B(v)) over the edge's endpoint
	// tiles, so routes are steered through buffer-site-rich regions and
	// the downstream insertion DP finds sites where the length rule needs
	// them. 0 (the default) reproduces the pure wire-capacity lengths.
	SiteWeight float64
	// RouteOpt configures the underlying Steiner router; its congestion
	// cost is replaced by the MCF edge lengths.
	RouteOpt route.Options
	// Obs receives per-phase spans and congestion gauges (see internal/obs)
	// and is propagated to the underlying router. nil disables telemetry.
	Obs obs.Observer
}

// Result is a complete MCF routing.
type Result struct {
	// Routes holds the selected tree per net.
	Routes []*rtree.Tree
	// FractionalMaxCongestion is the max edge congestion of the averaged
	// per-phase routing — a lower-bound certificate: no integral selection
	// of the generated trees beats it by more than the rounding gap.
	FractionalMaxCongestion float64
	// RoundedMaxCongestion is the max congestion of the selected routes.
	RoundedMaxCongestion float64
	// DualLowerBound is the approximate Garg–Könemann dual certificate:
	// the maximum over phases of sum_i len_y(T_i) / sum_e y(e)*cap(e),
	// where y is the exponential length system and T_i the tree routed
	// for net i in that phase. Because the trees are heuristic (not
	// exactly minimum) Steiner trees and y evolves within a phase, this
	// is a quality indicator for the fractional solution, not a proof.
	DualLowerBound float64

	// pooledTrees counts the distinct trees kept across the phases (the
	// allocation bound of TestRouteAllocBound is per pooled tree).
	pooledTrees int
}

// Route computes routes for all nets on the graph. Wire usage present on g
// is ignored and not modified; callers register the returned routes
// themselves (route.AddUsage).
func Route(g *tile.Graph, nets []*netlist.Net, opt Options) (*Result, error) {
	return RouteCtx(context.Background(), g, nets, opt) //rabid:allow ctxflow Route is the documented Background wrapper over RouteCtx for context-free callers (tables, tests); service paths call RouteCtx
}

// RouteCtx is Route with cooperative cancellation: the context is checked
// at every phase boundary and between nets within a phase, so a deadline
// lands promptly even on large grids. A run that completes is bit-identical
// to Route's — cancellation can only abort, never change a result.
func RouteCtx(ctx context.Context, g *tile.Graph, nets []*netlist.Net, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background() //rabid:allow ctxflow nil-ctx guard: normalized to the documented Background behavior instead of panicking at the first checkpoint
	}
	if opt.Phases == 0 {
		opt.Phases = DefaultPhases
	}
	if opt.Phases < 1 {
		return nil, fmt.Errorf("mcf: phases %d < 1", opt.Phases)
	}
	if opt.Epsilon == 0 {
		opt.Epsilon = DefaultEpsilon
	}
	if opt.Epsilon <= 0 || opt.Epsilon >= 1 {
		return nil, fmt.Errorf("mcf: epsilon %g outside (0,1)", opt.Epsilon)
	}
	if opt.SiteWeight < 0 || math.IsInf(opt.SiteWeight, 1) || math.IsNaN(opt.SiteWeight) {
		return nil, fmt.Errorf("mcf: site weight %g not in [0, inf)", opt.SiteWeight)
	}
	if opt.RouteOpt.OverflowPenalty == 0 {
		stage := opt.RouteOpt.Stage
		opt.RouteOpt = route.DefaultOptions()
		opt.RouteOpt.Stage = stage
	}
	// Pure shortest trees under the MCF lengths: no PD discounting, which
	// would distort the length system.
	opt.RouteOpt.Alpha = 1
	opt.RouteOpt.Obs = opt.Obs

	ne := g.NumEdges()
	length := make([]float64, ne)
	for e := range length {
		length[e] = 1 / float64(g.Capacity(e))
	}
	if opt.SiteWeight > 0 {
		// Buffer-site scarcity scaling: iterate each edge once through the
		// flat adjacency (nbr > v visits an edge from its lower endpoint).
		for v := 0; v < g.NumTiles(); v++ {
			nbrs, edges := g.Adjacency(v)
			for k, w := range nbrs {
				if int(w) <= v {
					continue
				}
				scarcity := (1/(1+float64(g.Sites(v))) + 1/(1+float64(g.Sites(int(w))))) / 2
				length[edges[k]] *= 1 + opt.SiteWeight*scarcity
			}
		}
	}
	opt.RouteOpt.Weight = length

	// Per-net tree pool with selection counts.
	pools := make([]pool, len(nets))
	// Fractional per-edge usage accumulated over phases.
	fracUse := make([]float64, ne)

	// One workspace for all phase routing. Pooled trees are kept to the
	// end (the rounding picks among them), so only a Reroute result that
	// duplicates a pooled tree is donated back, once its edges are walked.
	ws := route.NewWorkspace()
	dualBound := 0.0
	for phase := 0; phase < opt.Phases; phase++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mcf: cancelled before phase %d: %w", phase, err)
		}
		popt := opt.RouteOpt
		popt.Pass = phase + 1
		t0 := obs.Now(opt.Obs)
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindSpanBegin, Scope: "mcf.phase",
			Stage: popt.Stage, Pass: popt.Pass, Net: -1})
		// Dual denominator sum_e y(e)*cap(e), frozen at phase start; the
		// exponential length inflations below are the approximate
		// dual-variable updates of the Garg–Könemann scheme.
		denom := 0.0
		for e := 0; e < ne; e++ {
			denom += length[e] * float64(g.Capacity(e))
		}
		treeLens := 0.0
		for i, n := range nets {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("mcf: cancelled in phase %d: %w", phase, err)
			}
			rt, err := route.Reroute(g, n, popt, ws)
			if err != nil {
				return nil, fmt.Errorf("mcf: phase %d: %w", phase, err)
			}
			// Walk the edges in node order, as EdgePairs lists them, so the
			// float sums accumulate in the same order.
			for v := 1; v < rt.NumNodes(); v++ {
				e, _ := g.EdgeBetween(rt.Tile[rt.Parent[v]], rt.Tile[v])
				treeLens += length[e]
				fracUse[e]++
				// Exponential length update: inflate by the fraction of
				// the edge's capacity this unit of flow consumes.
				length[e] *= 1 + opt.Epsilon/float64(g.Capacity(e))
			}
			if !pools[i].add(rt) {
				// A duplicate only adds to its entry's count; its storage
				// backs the next reroute.
				ws.Recycle(rt)
			}
		}
		if denom > 0 {
			if b := treeLens / denom; b > dualBound {
				dualBound = b
			}
		}
		if opt.Obs != nil {
			obs.Emit(opt.Obs, obs.Event{Kind: obs.KindSpanEnd, Scope: "mcf.phase",
				Stage: popt.Stage, Pass: popt.Pass, Net: -1, Dur: obs.Since(opt.Obs, t0)})
		}
	}

	res := &Result{Routes: make([]*rtree.Tree, len(nets)), DualLowerBound: dualBound}
	for _, p := range pools {
		res.pooledTrees += len(p)
	}
	obs.Emit(opt.Obs, obs.Event{Kind: obs.KindGauge, Scope: "mcf.dual_bound",
		Stage: opt.RouteOpt.Stage, Net: -1, Value: dualBound})
	for e := 0; e < ne; e++ {
		c := fracUse[e] / float64(opt.Phases) / float64(g.Capacity(e))
		if c > res.FractionalMaxCongestion {
			res.FractionalMaxCongestion = c
		}
	}
	obs.Emit(opt.Obs, obs.Event{Kind: obs.KindGauge, Scope: "mcf.frac_congestion",
		Stage: opt.RouteOpt.Stage, Net: -1, Value: res.FractionalMaxCongestion})
	// Randomized rounding: pick each net's tree with probability
	// proportional to its phase count.
	rng := rand.New(rand.NewSource(opt.Seed))
	use := make([]int, ne)
	for i := range nets {
		total := 0
		for _, p := range pools[i] {
			total += p.count
		}
		pick := rng.Intn(total)
		for _, p := range pools[i] {
			pick -= p.count
			if pick < 0 {
				res.Routes[i] = p.tree
				break
			}
		}
		rt := res.Routes[i]
		for v := 1; v < rt.NumNodes(); v++ {
			e, _ := g.EdgeBetween(rt.Tile[rt.Parent[v]], rt.Tile[v])
			use[e]++
		}
	}
	res.RoundedMaxCongestion = repair(g, pools, res.Routes, use)
	obs.Emit(opt.Obs, obs.Event{Kind: obs.KindGauge, Scope: "mcf.rounded_congestion",
		Stage: opt.RouteOpt.Stage, Net: -1, Value: res.RoundedMaxCongestion})
	return res, nil
}

// repair is Albrecht's rerouting step: two greedy passes that re-choose
// each net's pooled tree to minimize the total overflow, then the worst
// congestion, with every other net's pick fixed. routes holds each net's
// pick and use the per-edge usage that includes them; both are updated in
// place. It returns the worst congestion of the final picks.
func repair(g *tile.Graph, pools []pool, routes []*rtree.Tree, use []int) float64 {
	cg := newCongestion(g, use)
	for pass := 0; pass < 2; pass++ {
		for i := range routes {
			bestTree := routes[i]
			cg.add(bestTree, -1)
			bestOver, bestCong := -1, 0.0
			for _, p := range pools[i] {
				over, cong := cg.scoreWith(p.tree)
				if bestOver < 0 || over < bestOver || (over == bestOver && cong < bestCong) {
					bestOver, bestCong, bestTree = over, cong, p.tree
				}
			}
			routes[i] = bestTree
			cg.add(bestTree, 1)
		}
	}
	return cg.worst()
}

// congestion is the per-edge usage of the repair, with its total overflow
// and a max tree over each edge's congestion use/cap, kept current as
// trees are added and removed. Scoring a candidate then costs O(its
// edges), not a scan of every edge, and gives the scan's exact result:
// the overflow is an integer sum, and the worst congestion is the largest
// of the same float64 quotients. A quotient counts only when positive, as
// in a scan that starts at 0 and keeps strict improvements: 0/0 (NaN) is
// skipped, and x/0 = +Inf on a blocked edge is kept.
type congestion struct {
	g    *tile.Graph
	use  []int
	over int
	// hi is the max tree: edge e's quotient is the leaf hi[n+e], and each
	// inner node k holds the larger of hi[2k] and hi[2k+1], so hi[1] is
	// the worst congestion. n is a power of two; spare leaves hold 0.
	hi []float64
	n  int
}

func newCongestion(g *tile.Graph, use []int) *congestion {
	n := 1
	for n < len(use) {
		n *= 2
	}
	c := &congestion{g: g, use: use, hi: make([]float64, 2*n), n: n}
	for e, u := range use {
		c.over += max(0, u-g.Capacity(e))
		c.hi[n+e] = quotient(u, g.Capacity(e))
	}
	for k := n - 1; k >= 1; k-- {
		c.hi[k] = max(c.hi[2*k], c.hi[2*k+1])
	}
	return c
}

// quotient is an edge's congestion as the worst-congestion maximum counts
// it: u/cp when positive, 0 otherwise (NaN included).
func quotient(u, cp int) float64 {
	if q := float64(u) / float64(cp); q > 0 {
		return q
	}
	return 0
}

// add adds delta units of usage on every edge of rt.
func (c *congestion) add(rt *rtree.Tree, delta int) {
	for v := 1; v < rt.NumNodes(); v++ {
		e, _ := c.g.EdgeBetween(rt.Tile[rt.Parent[v]], rt.Tile[v])
		cp := c.g.Capacity(e)
		c.over -= max(0, c.use[e]-cp)
		c.use[e] += delta
		c.over += max(0, c.use[e]-cp)
		k := c.n + e
		c.hi[k] = quotient(c.use[e], cp)
		for k > 1 {
			k /= 2
			c.hi[k] = max(c.hi[2*k], c.hi[2*k+1])
		}
	}
}

// scoreWith returns the total overflow and the worst congestion the
// current usage would have with rt added, without adding it. A tree's
// nodes are distinct tiles, so it crosses each edge once: one more unit on
// edge e adds 1 to the overflow exactly when use+1 > cap, and raises e's
// quotient, so the worst is the larger of the current worst and rt's
// raised quotients.
func (c *congestion) scoreWith(rt *rtree.Tree) (over int, worst float64) {
	over, worst = c.over, c.hi[1]
	for v := 1; v < rt.NumNodes(); v++ {
		e, _ := c.g.EdgeBetween(rt.Tile[rt.Parent[v]], rt.Tile[v])
		u, cp := c.use[e]+1, c.g.Capacity(e)
		if u > cp {
			over++
		}
		if q := float64(u) / float64(cp); q > worst {
			worst = q
		}
	}
	return over, worst
}

// worst returns the worst congestion of the current usage.
func (c *congestion) worst() float64 { return c.hi[1] }

// pooled is one pool entry: a distinct tree and the number of phases
// that routed it.
type pooled struct {
	tree  *rtree.Tree
	count int
}

// pool is one net's set of distinct phase trees.
type pool []pooled

// add counts rt in the pool and reports whether it joined as a new entry;
// a tree equal to a pooled one is only counted. Reroute numbers a tree's
// nodes canonically (ascending tile index, each chain parent first), so
// two trees of one net have the same edge set exactly when their Tile and
// Parent arrays are equal; the comparison is exact and allocates nothing.
func (p *pool) add(rt *rtree.Tree) bool {
	for k := range *p {
		if e := &(*p)[k]; slices.Equal(e.tree.Tile, rt.Tile) && slices.Equal(e.tree.Parent, rt.Parent) {
			e.count++
			return false
		}
	}
	*p = append(*p, pooled{tree: rt, count: 1})
	return true
}
