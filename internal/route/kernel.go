// Search kernels: interchangeable wavefront priority queues behind the
// router's relaxation loops (see DESIGN.md, "Search kernels").
//
// All kernels pop by the same explicit total order (key, node) — see
// pqLess — so any two kernels that pop the *same* priorities are
// interchangeable bit for bit:
//
//   - heap: the binary heap of workspace.go (the default).
//   - dial: a Dial bucket queue — keys quantized into monotone buckets
//     sized from the Eq. (1) cost bounds at graph build (tile.CapMax),
//     exact (key, node) min selection inside a bucket, and a (key, node)
//     overflow heap past the bucketed range. Quantization only groups
//     keys, it never reorders them, so the pop sequence is identical to
//     the heap's and Reroute/RipupPass/BufferAwarePath stay byte-identical.
//   - astar: the heap machinery ordered by key + h(node), where h is an
//     admissible lower bound on the remaining key increase (Manhattan
//     distance x the minimum residual edge cost, PD-discounted — see
//     astarHR). Popped order differs; returned path costs do not.
//
// The Prim–Dijkstra key is not monotone under congestion-varying edge
// costs (k_v - k_u = ec_uv - (1-alpha)*ec_parent_u can be negative), so the
// Dial queue keeps a scan-back cursor: a push below the cursor moves the
// cursor back, restoring the invariant that no live bucket precedes it.
package route

import (
	"fmt"
	"math"

	"repro/internal/netlist"
	"repro/internal/tile"
)

// Kernel names accepted by Options.Kernel and Params.SearchKernel.
const (
	KernelHeap  = "heap"
	KernelDial  = "dial"
	KernelAstar = "astar"
)

// Kernels lists the accepted kernel names.
func Kernels() []string { return []string{KernelHeap, KernelDial, KernelAstar} }

// kernelID is the resolved kernel for one kernel call.
type kernelID uint8

const (
	kHeap kernelID = iota
	kDial
	kAstar
)

// resolveKernel maps Options.Kernel to a kernelID. A caller-supplied
// Options.Weight forces the heap: the custom cost function publishes no
// bounds, so neither Dial's bucket sizing nor A*'s admissible lower bound
// is sound under it (the same reason route.Parallel falls back to the
// sequential kernel there).
func resolveKernel(opt Options) (kernelID, error) {
	switch opt.Kernel {
	case "", KernelHeap:
		return kHeap, nil
	case KernelDial:
		if opt.Weight != nil {
			return kHeap, nil
		}
		return kDial, nil
	case KernelAstar:
		if opt.Weight != nil {
			return kHeap, nil
		}
		return kAstar, nil
	default:
		return kHeap, fmt.Errorf("route: unknown search kernel %q (want %q, %q or %q)", opt.Kernel, KernelHeap, KernelDial, KernelAstar) //rabid:allow allocfree cold abort path: fmt argument boxing only on invalid input
	}
}

// rerouteKernel is the kernel Reroute actually runs: resolveKernel, plus
// astar's fallback to heap order at alpha != 1. The PD key is non-monotone
// for alpha < 1: a later pop can offer a done node a smaller key
// (k_v - k_u = ec_uv - (1-alpha)*ec_parent_u), so the labels are
// pop-order-defined and any goal-directed reordering changes results
// (TestAstarCostIdenticalReroute pins the alpha=1 guarantee; the divergence
// is real at 0.4). BufferAwarePath — a pure Dijkstra — and alpha=1 reroutes
// (the cost-distance Steiner mode) keep the goal-directed order.
func rerouteKernel(opt Options) (kernelID, error) {
	k, err := resolveKernel(opt)
	if k == kAstar && opt.Alpha != 1 { //rabid:allow floateq exact gate: A* keeps heap-identical labels only at exactly alpha=1
		k = kHeap
	}
	return k, err
}

// kernelLabel returns the kernel name a Reroute with these options actually
// runs under (after the Options.Weight and alpha fallbacks), for counter
// labeling.
func kernelLabel(opt Options) string {
	k, err := rerouteKernel(opt)
	if err != nil {
		return opt.Kernel
	}
	switch k {
	case kDial:
		return KernelDial
	case kAstar:
		return KernelAstar
	default:
		return KernelHeap
	}
}

// maxDialBuckets caps the Dial bucket array: beyond it, keys spill into
// the far heap. 1<<15 buckets bound the per-workspace footprint at ~1.2 MB
// while covering any realistic finite-cost key range (suite grids need a
// few hundred).
const maxDialBuckets = 1 << 15

// dialState is the Dial bucket queue. Buckets are epoch-stamped (a stale
// stamp reads as empty, so reset is O(1)); far is a (key, node) binary
// heap holding every item at or past thr, which keeps penalty-priced keys
// (OverflowPenalty ~ 1e6) from demanding millions of buckets.
type dialState struct {
	buckets [][]pqItem
	stamp   []uint64
	far     []pqItem
	cur     int     // lowest possibly-live bucket (scan-back cursor)
	n       int     // buckets in use this call
	count   int     // live items across buckets and far
	scale   float64 // buckets per unit key (1/width)
	thr     float64 // keys >= thr go to far
}

// astarState carries the per-call heuristic inputs. Reroute mode uses the
// goal coordinates plus the static per-edge cost lower bound (gx, gy, w,
// cmin, alpha); BufferAwarePath uses hd, the exact tile-level
// reverse-Dijkstra distance table armed by armPathBound (hs is its epoch
// stamp; a stale entry reads as unreachable) — as the astar kernel's
// heuristic and as the h of the incumbent bound. armPops and armRelax record
// the arming pass's queue work so the caller can fold it into the
// wavefront counters — the heuristic's cost is never hidden from the
// pops/relaxations accounting.
type astarState struct {
	gx, gy   []int32
	w        int
	cmin     float64
	alpha    float64
	hd       []float64
	hs       []uint64
	armPops  int
	armRelax int
}

// qReset arms the workspace's queue for one kernel call. For Dial it
// derives the bucket geometry from the graph's Eq. (1) cost bounds:
// width = the cheapest possible finite edge cost (1/CapMax + LengthWeight,
// one wire on an empty max-capacity edge), and enough buckets to span a
// grid-diameter path of costliest finite edges (CapMax + LengthWeight per
// edge, the last legal wire). Keys past that span — penalty-priced routes —
// go to the far heap. The geometry affects only how finely keys are
// grouped, never their order, so a conservative span costs performance,
// not correctness.
func (ws *Workspace) qReset(kern kernelID, g *tile.Graph, opt Options) {
	ws.kern = kern
	if kern != kDial {
		return
	}
	d := &ws.dial
	capMax := g.CapMax()
	if capMax < 1 {
		capMax = 1
	}
	width := 1/float64(capMax) + opt.LengthWeight
	if width <= 0 || math.IsInf(width, 0) || math.IsNaN(width) {
		width = 1
	}
	span := float64(g.W+g.H+1) * (float64(capMax) + opt.LengthWeight)
	n := int(span/width) + 2
	if n > maxDialBuckets {
		n = maxDialBuckets
	}
	if n < 1 {
		n = 1
	}
	if len(d.buckets) < n {
		// Seed every new bucket with a few slots carved from one slab, so
		// cold buckets (touched for the first time as congestion drifts
		// between passes) append without allocating. Previously-warmed
		// buckets keep their grown backing arrays via the copy.
		const seedCap = 8
		nb := make([][]pqItem, n)         //rabid:allow allocfree cold grow path: runs only while the bucket array is still smaller than the grid's span, never in steady state
		slab := make([]pqItem, n*seedCap) //rabid:allow allocfree cold grow path: one-time slab seeding the new buckets' capacity
		for i := range nb {
			nb[i] = slab[i*seedCap : i*seedCap : (i+1)*seedCap]
		}
		copy(nb, d.buckets)
		d.buckets = nb
		ns := make([]uint64, n) //rabid:allow allocfree cold grow path: grows with the bucket array, then stable
		copy(ns, d.stamp)
		d.stamp = ns
	}
	d.n = n
	d.scale = 1 / width
	d.thr = float64(n) * width
	d.cur = 0
	d.count = 0
	d.far = d.far[:0]
}

// qPush inserts an item under the active kernel. A* callers fold their
// heuristic into the item's key before pushing; the queue itself is
// heuristic-agnostic.
func (ws *Workspace) qPush(it pqItem) {
	if ws.kern == kDial {
		ws.dialPush(it)
		return
	}
	ws.pushPQ(it)
}

// qPop removes and returns the (key, node)-minimal item.
func (ws *Workspace) qPop() pqItem {
	if ws.kern == kDial {
		return ws.dialPop()
	}
	return ws.popPQ()
}

// qLen returns the number of live items.
func (ws *Workspace) qLen() int {
	if ws.kern == kDial {
		return ws.dial.count
	}
	return len(ws.q)
}

func (ws *Workspace) dialPush(it pqItem) {
	d := &ws.dial
	d.count++
	if it.key >= d.thr {
		d.far = heapPushPQ(d.far, it)
		return
	}
	b := int(it.key * d.scale)
	if b >= d.n {
		b = d.n - 1 // float rounding at the threshold boundary
	}
	if d.stamp[b] != ws.epoch {
		d.stamp[b] = ws.epoch
		d.buckets[b] = d.buckets[b][:0]
	}
	d.buckets[b] = append(d.buckets[b], it) //rabid:allow allocfree amortized grow path: a bucket's backing array reallocates only until the workspace has warmed to the workload
	if b < d.cur {
		// PD keys are not monotone: a relaxation may push below the pop
		// front. Scanning back keeps "no live bucket precedes cur" exact.
		d.cur = b
	}
}

func (ws *Workspace) dialPop() pqItem {
	d := &ws.dial
	d.count--
	for d.cur < d.n {
		if d.stamp[d.cur] == ws.epoch {
			if s := d.buckets[d.cur]; len(s) > 0 {
				// Exact (key, node) min inside the bucket: quantization
				// groups keys but the pop order stays the heap's.
				m := 0
				for i := 1; i < len(s); i++ {
					if pqLess(s[i], s[m]) {
						m = i
					}
				}
				it := s[m]
				last := len(s) - 1
				s[m] = s[last]
				d.buckets[d.cur] = s[:last]
				return it
			}
		}
		d.cur++
	}
	var it pqItem
	it, d.far = heapPopPQ(d.far)
	return it
}

// --- A* heuristic -------------------------------------------------------

// astarArmReroute loads the net's sink coordinates and the static Eq. (1)
// per-edge lower bound. The bound is deliberately usage-independent
// (1/CapMax + LengthWeight): the speculative parallel engine must see the
// same pop order as the sequential kernel, and a live residual scan would
// read congestion outside the recorded read set.
func (ws *Workspace) astarArmReroute(g *tile.Graph, n *netlist.Net, opt Options) {
	a := &ws.astar
	a.gx, a.gy = a.gx[:0], a.gy[:0]
	for _, s := range n.Sinks {
		//rabid:allow narrowcast tile coordinates are < W,H <= MaxInt32, enforced by tile.New
		a.gx = append(a.gx, int32(s.Tile.X)) //rabid:allow allocfree amortized grow path: goal slices reallocate only until the workspace has seen the max fanout
		//rabid:allow narrowcast tile coordinates are < W,H <= MaxInt32, enforced by tile.New
		a.gy = append(a.gy, int32(s.Tile.Y)) //rabid:allow allocfree amortized grow path: goal slices reallocate only until the workspace has seen the max fanout
	}
	a.w = g.W
	capMax := g.CapMax()
	if capMax < 1 {
		capMax = 1
	}
	a.cmin = 1/float64(capMax) + opt.LengthWeight
	a.alpha = opt.Alpha
}

// armPathBound arms BufferAwarePath's remaining-cost lower bound — the
// astar kernel's heuristic and the incumbent bound's h: an exact reverse
// Dijkstra from the head over the tile graph, under the live Eq. (1) edge
// costs and the caller's blocked mask. The tile metric is a relaxation of
// the (tile, j) state search — it drops the buffer-spacing constraint and
// the non-negative Eq. (2) site costs but keeps the edge costs and the
// blocked semantics exactly — so hd[t] is an admissible, consistent lower
// bound on any state (t, j)'s true remaining cost: h(v) <= wc + h(w) is
// the triangle inequality of the relaxed metric, and a buffer placement
// stays in the same tile at non-negative cost. Tiles the reverse scan
// never reaches read as +Inf, which is itself exact: no forward path from
// them can reach the head either.
//
// The scan stops at the first pop whose distance exceeds limit (+Inf scans
// everything). Every tile not yet settled is then at least that far from
// the head, and any value pathBound reads there — +Inf, or a tentative
// distance above the true one — exceeds limit too, so a caller that prunes
// at limit prunes such a tile exactly as the full table would.
//
// Usage is static within one call and Stage 4 never speculates, so the
// scan is deterministic; it also pre-warms the per-edge cost memo the
// main search reads. The arming queue work is recorded in armPops /
// armRelax and folded into the wavefront counters by the caller.
func (ws *Workspace) armPathBound(g *tile.Graph, head int, blocked []bool, opt Options, limit float64) {
	a := &ws.astar
	nt := g.NumTiles()
	if len(a.hd) < nt {
		a.hd = make([]float64, nt) //rabid:allow allocfree cold grow path: the heuristic table reallocates only when the grid outgrows the workspace
		a.hs = make([]uint64, nt)  //rabid:allow allocfree cold grow path: the heuristic table reallocates only when the grid outgrows the workspace
	}
	a.armPops, a.armRelax = 0, 0
	ep := ws.epoch
	memo := opt.Weight == nil
	a.hd[head] = 0
	a.hs[head] = ep
	ws.q = ws.q[:0]
	ws.pushPQ(pqItem{head, 0})
	for len(ws.q) > 0 {
		it := ws.popPQ()
		a.armPops++
		u := it.node
		if it.key > a.hd[u] {
			continue // stale entry, superseded by a better push
		}
		if it.key > limit {
			break
		}
		nbrs, edges := g.Adjacency(u)
		for x, v32 := range nbrs {
			v := int(v32)
			// Expanding v would stand for a forward move into v, which the
			// main search permits only into unblocked tiles (the head, the
			// scan's source, excepted); it never reads h at a blocked tile.
			if blocked != nil && blocked[v] {
				continue
			}
			a.armRelax++
			d := it.key + ws.edgeCostMemo(g, int(edges[x]), opt, memo)
			if a.hs[v] != ep || d < a.hd[v] {
				a.hs[v] = ep
				a.hd[v] = d
				ws.pushPQ(pqItem{v, d})
			}
		}
	}
	ws.q = ws.q[:0] // a capped scan leaves entries behind; the main search starts empty
}

// astarManh returns the Manhattan distance from tile t to the nearest
// goal.
func (ws *Workspace) astarManh(t int) int32 {
	a := &ws.astar
	//rabid:allow narrowcast tile coordinates are < W,H <= MaxInt32, enforced by tile.New
	x, y := int32(t%a.w), int32(t/a.w)
	best := int32(math.MaxInt32)
	for i, gx := range a.gx {
		dx := x - gx
		if dx < 0 {
			dx = -dx
		}
		dy := y - a.gy[i]
		if dy < 0 {
			dy = -dy
		}
		if d := dx + dy; d < best {
			best = d
		}
	}
	return best
}

// astarHR is the Reroute (PD-key) heuristic for tile v reached over an
// edge of cost ec: a lower bound on how much the PD selection key still
// has to grow before any sink pops.
//
// Admissibility: write k_v = alpha*g(v) + (1-alpha)*ec_v (substituting
// g(v) = g(parent) + ec_v into k_v = alpha*g(parent) + ec_v). For any sink
// s reached through v over m >= manh(v) further edges, each costing at
// least cmin, k_s >= alpha*g(s) >= alpha*(g(v) + m*cmin) =
// k_v - (1-alpha)*ec_v + alpha*m*cmin. Hence
//
//	k_s - k_v >= alpha*manh(v)*cmin - (1-alpha)*ec_v,
//
// which is exactly the value below (clamped at zero). At alpha = 1 this is
// the textbook Manhattan x min-edge-cost bound. The property test
// TestAstarBoundAdmissible pins the inequality on random congested grids.
func (ws *Workspace) astarHR(v int, ec float64) float64 {
	a := &ws.astar
	h := a.alpha*a.cmin*float64(ws.astarManh(v)) - (1-a.alpha)*ec
	if h < 0 {
		return 0
	}
	return h
}

// pathBound is the BufferAwarePath lower bound for tile t: the exact
// relaxed-metric distance armed by armPathBound. Consistency of that
// metric (see armPathBound) means the first head-state pop under the astar
// kernel carries the exact same optimal distance the heap kernel returns.
func (ws *Workspace) pathBound(t int) float64 {
	a := &ws.astar
	if a.hs[t] != ws.epoch {
		return math.Inf(1) // the head is unreachable from t
	}
	return a.hd[t]
}
