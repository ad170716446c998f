package route

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/tile"
)

// bufferAwarePathOracle is BufferAwarePath as it was before the dominance
// and incumbent pruning: a plain Dijkstra over every (tile, j) state. It
// is kept, test-only, as the reference the pruned search must reproduce
// path for path and cost for cost (TestBufferAwarePathMatchesOracle).
func bufferAwarePathOracle(g *tile.Graph, tail, head geom.Pt, L int, blocked []bool, opt Options, ws *Workspace) ([]geom.Pt, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if L < 1 {
		return nil, fmt.Errorf("route: length constraint %d < 1", L)
	}
	if !g.InGrid(tail) || !g.InGrid(head) {
		return nil, fmt.Errorf("route: endpoints %v,%v outside grid", tail, head)
	}
	nt := g.NumTiles()
	// The (tile, j) state space is indexed by int32 predecessor labels; a
	// large grid times a large L would silently wrap the labels and corrupt
	// the traceback, so the size is guarded up front (before allocation).
	if int64(nt)*int64(L) > math.MaxInt32 {
		return nil, fmt.Errorf("route: DP state space %d tiles x L=%d = %d exceeds %d states",
			nt, L, int64(nt)*int64(L), int64(math.MaxInt32))
	}
	ws.begin(g.NumEdges())
	ws.growStates(nt * L)
	ep := ws.epoch
	headIdx := g.TileIndex(head)
	kern, err := resolveKernel(opt)
	if err != nil {
		return nil, err
	}
	ws.qReset(kern, g, opt)
	if kern == kAstar {
		ws.oracleArmPath(g, headIdx, blocked, opt)
	}
	start := g.TileIndex(tail) * L // state (tail, 0)
	ws.sStamp[start] = ep
	ws.sDist[start] = 0
	ws.sPred[start] = -1
	ws.sDone[start] = false
	ws.qPush(pqItem{start, 0}) // sole item: its priority never competes
	goal := -1
	memo := opt.Weight == nil
	tally := opt.Obs != nil
	pops, pushes, relaxations := 0, 0, 0
	if tally {
		pushes = 1
		if kern == kAstar {
			// The arming reverse Dijkstra is real queue work; charging it
			// here keeps the per-kernel pops/relaxations comparison honest.
			pops += ws.astar.armPops
			relaxations += ws.astar.armRelax
		}
	}
	for ws.qLen() > 0 {
		it := ws.qPop()
		if tally {
			pops++
		}
		s := it.node
		if ws.sDone[s] {
			continue
		}
		ws.sDone[s] = true
		v, j := s/L, s%L
		if v == headIdx {
			goal = s
			break
		}
		ds := ws.sDist[s]
		nbrs, edges := g.Adjacency(v)
		for x, w32 := range nbrs {
			w := int(w32)
			if blocked != nil && blocked[w] && w != headIdx {
				continue
			}
			if tally {
				relaxations++
			}
			wc := ws.edgeCostMemo(g, int(edges[x]), opt, memo)
			var hw float64
			if kern == kAstar {
				hw = ws.oracleHPath(w)
			}
			// Advance without buffering.
			if j+1 < L {
				ns := w*L + j + 1
				if ws.sStamp[ns] != ep {
					ws.sStamp[ns] = ep
					ws.sDist[ns] = math.Inf(1)
					ws.sDone[ns] = false
				}
				if nd := ds + wc; nd < ws.sDist[ns] {
					ws.sDist[ns] = nd
					//rabid:allow narrowcast s < nt*L, guarded against MaxInt32 at function entry
					ws.sPred[ns] = int32(s)
					ws.qPush(pqItem{ns, nd + hw})
					if tally {
						pushes++
					}
				}
			}
			// Buffer at the new tile.
			ns := w * L
			if ws.sStamp[ns] != ep {
				ws.sStamp[ns] = ep
				ws.sDist[ns] = math.Inf(1)
				ws.sDone[ns] = false
			}
			if nd := ds + wc + siteCostClamped(g, w, opt); nd < ws.sDist[ns] {
				ws.sDist[ns] = nd
				//rabid:allow narrowcast s < nt*L, guarded against MaxInt32 at function entry
				ws.sPred[ns] = int32(s)
				ws.qPush(pqItem{ns, nd + hw})
				if tally {
					pushes++
				}
			}
		}
	}
	if tally {
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.bap.pops", Stage: opt.Stage, Net: -1, Value: float64(pops)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.bap.pushes", Stage: opt.Stage, Net: -1, Value: float64(pushes)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.bap.relaxations", Stage: opt.Stage, Net: -1, Value: float64(relaxations)})
	}
	if goal < 0 {
		return nil, fmt.Errorf("route: no reconnection from %v to %v", tail, head)
	}
	rev := ws.path[:0]
	for s := goal; s != -1; s = int(ws.sPred[s]) {
		pv := g.TileAt(s / L)
		if len(rev) == 0 || rev[len(rev)-1] != pv {
			rev = append(rev, pv)
		}
	}
	ws.path = rev
	// rev is head..tail already (we traced from the head state back).
	return rev, nil
}

// oracleArmPath and oracleHPath are the oracle's A* heuristic as it was:
// the uncapped reverse Dijkstra and its lookup.
func (ws *Workspace) oracleArmPath(g *tile.Graph, head int, blocked []bool, opt Options) {
	a := &ws.astar
	nt := g.NumTiles()
	if len(a.hd) < nt {
		a.hd = make([]float64, nt)
		a.hs = make([]uint64, nt)
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
		// Expanding u corresponds to a forward move v -> u, which the main
		// search permits only into unblocked tiles (the head excepted).
		if u != head && blocked != nil && blocked[u] {
			continue
		}
		nbrs, edges := g.Adjacency(u)
		for x, v32 := range nbrs {
			v := int(v32)
			a.armRelax++
			d := it.key + ws.edgeCostMemo(g, int(edges[x]), opt, memo)
			if a.hs[v] != ep || d < a.hd[v] {
				a.hs[v] = ep
				a.hd[v] = d
				ws.pushPQ(pqItem{v, d})
			}
		}
	}
}

func (ws *Workspace) oracleHPath(t int) float64 {
	a := &ws.astar
	if a.hs[t] != ws.epoch {
		return math.Inf(1) // the head is unreachable from t
	}
	return a.hd[t]
}

// headCost returns the cost of the head state a BufferAwarePath call
// returned through: the single head state it popped.
func headCost(ws *Workspace, g *tile.Graph, head geom.Pt, L int) float64 {
	base := g.TileIndex(head) * L
	for j := 0; j < L; j++ {
		if s := base + j; ws.sStamp[s] == ws.epoch && ws.sDone[s] {
			return ws.sDist[s]
		}
	}
	return math.NaN()
}

// staircase returns a shortest-grid walk from a to b, taking its x and y
// steps in random order: the shape of a wire-only route.
func staircase(r *rand.Rand, a, b geom.Pt) []geom.Pt {
	walk := []geom.Pt{a}
	for p := a; p != b; {
		dx, dy := b.X-p.X, b.Y-p.Y
		if dx != 0 && (dy == 0 || r.Intn(2) == 0) {
			p.X += sign(dx)
		} else {
			p.Y += sign(dy)
		}
		walk = append(walk, p)
	}
	return walk
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}

// detour returns a self-avoiding walk from a to b found by randomized
// depth-first search: typically a long, poor incumbent.
func detour(r *rand.Rand, g *tile.Graph, a, b geom.Pt) []geom.Pt {
	seen := make([]bool, g.NumTiles())
	var walk []geom.Pt
	var dfs func(p geom.Pt) bool
	dfs = func(p geom.Pt) bool {
		seen[g.TileIndex(p)] = true
		walk = append(walk, p)
		if p == b {
			return true
		}
		steps := []geom.Pt{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}
		r.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
		for _, d := range steps {
			q := geom.Pt{X: p.X + d.X, Y: p.Y + d.Y}
			if g.InGrid(q) && !seen[g.TileIndex(q)] && dfs(q) {
				return true
			}
		}
		walk = walk[:len(walk)-1]
		return false
	}
	dfs(a)
	return walk
}

// pathInstance is one random Stage-4 search problem with its candidate
// incumbents.
type pathInstance struct {
	g          *tile.Graph
	tail, head geom.Pt
	L          int
	blocked    []bool
	near, far  []geom.Pt // a near-shortest walk and a long self-avoiding detour
	broken     []geom.Pt // far with a step removed: an illegal walk
}

// randomPathInstance draws trial number trial from r: a random congested
// grid with zero-site tiles (Eq. (2) priced at OverflowPenalty), random
// capacities, wire, buffer and demand usage, random endpoints, L in 1..8,
// and (on four trials in five) a random blocked mask. Every third trial
// blocks freely, which may cut the walks and disconnect the head; the
// others block only tiles off both walks.
func randomPathInstance(t *testing.T, r *rand.Rand, trial int) pathInstance {
	t.Helper()
	w, h := 2+r.Intn(13), 2+r.Intn(13)
	sites := make([]int, w*h)
	for i := range sites {
		if r.Intn(4) != 0 {
			sites[i] = r.Intn(4)
		}
	}
	g, err := tile.New(w, h, sites, 1+r.Intn(3))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < g.NumEdges(); e++ {
		if r.Intn(6) == 0 {
			g.SetCapacity(e, r.Intn(3))
		}
		for k := r.Intn(4); k > 0; k-- {
			g.AddWire(e)
		}
	}
	for v := 0; v < g.NumTiles(); v++ {
		for k := r.Intn(sites[v] + 1); k > 0; k-- {
			g.AddBuffer(v) // a full tile prices Eq. (2) at OverflowPenalty too
		}
		g.AddDemand(v, r.Float64())
	}
	in := pathInstance{g: g,
		tail: geom.Pt{X: r.Intn(w), Y: r.Intn(h)},
		head: geom.Pt{X: r.Intn(w), Y: r.Intn(h)}}
	in.near, in.far = staircase(r, in.tail, in.head), detour(r, g, in.tail, in.head)
	free := trial%3 == 0
	keep := make([]bool, g.NumTiles())
	for _, p := range append(slices.Clone(in.near), in.far...) {
		keep[g.TileIndex(p)] = true
	}
	if trial%5 != 0 {
		in.blocked = make([]bool, g.NumTiles())
		for v := range in.blocked {
			in.blocked[v] = r.Intn(3) == 0 && (free || !keep[v])
		}
	}
	in.broken = slices.Clone(in.far)
	if len(in.broken) > 2 {
		in.broken = slices.Delete(in.broken, 1, 2) // a non-adjacent step
	}
	in.L = 1 + r.Intn(8)
	return in
}

// checkAgainstOracle runs the oracle on in under opt, then the pruned
// search with no incumbent, each of the instance's walks and the optimal
// path itself (the tightest bound, where only the rounding slack separates
// the returned chain from pruned states), all on ws. It fails unless every
// call returns the oracle's error, path and bit-for-bit head cost, and
// (heap and dial) unless the incumbent pass prices the optimal path at
// exactly that head cost. It returns the oracle's pops, and the pruned search's pops and pushes
// without an incumbent and pushes with the near one, as opt.Obs counts
// them.
func checkAgainstOracle(t *testing.T, in pathInstance, opt Options, ws *Workspace, label string) (oraclePops, pops, pushes, boundPushes float64) {
	t.Helper()
	g, L := in.g, in.L
	counter := func(k string) float64 {
		if m, ok := opt.Obs.(*obs.Metrics); ok {
			return m.Counter(k)
		}
		return 0
	}
	want, werr := bufferAwarePathOracle(g, in.tail, in.head, L, in.blocked, opt, ws)
	want = slices.Clone(want)
	wantCost := headCost(ws, g, in.head, L)
	oraclePops = counter("route.bap.pops")
	optimal := slices.Clone(want)
	slices.Reverse(optimal)
	// Under cost-ordered pops the head cost is the optimum itself, and the
	// incumbent pass, pricing the optimal walk with the search's own float
	// operations, must reproduce it bit for bit. (astar can settle one ulp
	// above the optimum; see TestBufferAwarePathAstarTieRegression.)
	if werr == nil && opt.Kernel != KernelAstar {
		ws.begin(g.NumEdges())
		if u, ok := ws.incumbentCost(g, optimal, in.tail, in.head, L, in.blocked, opt, opt.Weight == nil); !ok || math.Float64bits(u) != math.Float64bits(wantCost) {
			t.Fatalf("%s %s: incumbent cost of the optimal path = %v (ok=%v), search cost %v", label, opt.Kernel, u, ok, wantCost)
		}
	}
	for ci, inc := range [][]geom.Pt{nil, in.near, in.far, optimal, in.broken} {
		p0, q0 := counter("route.bap.pops"), counter("route.bap.pushes")
		got, gerr := BufferAwarePath(g, in.tail, in.head, L, in.blocked, inc, opt, ws)
		switch ci {
		case 0:
			pops, pushes = counter("route.bap.pops")-p0, counter("route.bap.pushes")-q0
		case 1:
			boundPushes = counter("route.bap.pushes") - q0
		}
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("%s %s incumbent %d: err oracle=%v pruned=%v", label, opt.Kernel, ci, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s %s L=%d incumbent %d %v->%v: path\n pruned %v\n oracle %v", label, opt.Kernel, L, ci, in.tail, in.head, got, want)
		}
		if c := headCost(ws, g, in.head, L); math.Float64bits(c) != math.Float64bits(wantCost) {
			t.Fatalf("%s %s incumbent %d: head cost pruned=%v oracle=%v", label, opt.Kernel, ci, c, wantCost)
		}
	}
	return oraclePops, pops, pushes, boundPushes
}

// TestBufferAwarePathMatchesOracle is the equivalence contract of the
// pruned Stage-4 search: on random instances (see randomPathInstance) it
// must return exactly the oracle's path, error and bit-for-bit head cost,
// under the heap, dial and astar kernels, with and without incumbents (see
// checkAgainstOracle). Every call shares one dirty workspace, interleaved
// with Reroutes that reuse the tile arrays the dominance record borrows.
func TestBufferAwarePathMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	ws := NewWorkspace()
	trials := 800
	if testing.Short() {
		trials = 200
	}
	calls := 0
	var popsOracle, popsPlain, pushesPlain, pushesBound float64
	for trial := 0; trial < trials; trial++ {
		in := randomPathInstance(t, r, trial)
		if trial%4 == 0 {
			n := &netlist.Net{ID: trial, Name: "d", L: in.L,
				Source: netlist.Pin{Tile: in.tail}, Sinks: []netlist.Pin{{Tile: in.head}}}
			if _, err := Reroute(in.g, n, DefaultOptions(), ws); err != nil {
				t.Fatal(err)
			}
		}
		for _, kernel := range []string{KernelHeap, KernelDial, KernelAstar} {
			opt := DefaultOptions()
			opt.Kernel = kernel
			if trial%7 == 0 {
				opt.LengthWeight = 0 // more exact cost ties
			}
			if trial%2 == 1 {
				opt.Obs = obs.NewMetrics()
			}
			o, p, q, b := checkAgainstOracle(t, in, opt, ws, fmt.Sprintf("trial %d", trial))
			calls += 5
			popsOracle += o
			popsPlain += p
			pushesPlain += q
			pushesBound += b
		}
	}
	t.Logf("%d pruned calls matched the oracle; observed pops: oracle %.0f, pruned %.0f; pushes: pruned %.0f, with the near incumbent %.0f",
		calls, popsOracle, popsPlain, pushesPlain, pushesBound)
	if popsPlain >= popsOracle || pushesBound >= pushesPlain {
		t.Fatalf("pruning not engaging: pops oracle %.0f, pruned %.0f; pushes pruned %.0f, bounded %.0f", popsOracle, popsPlain, pushesPlain, pushesBound)
	}
}

// TestBufferAwarePathAstarTieRegression replays the instance that showed
// why the astar kernel keeps dominated states: its penalty-priced costs
// make two same-tile labels one ulp apart whose cost + h keys tie, so the
// astar oracle pops the costlier label first and reaches the head one ulp
// above the optimum. Skipping the dominated push there let the cheaper
// label through and returned a different path.
func TestBufferAwarePathAstarTieRegression(t *testing.T) {
	const seed, target = 31337, 13492
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < target; trial++ {
		randomPathInstance(t, r, trial) // advance the generator
	}
	in := randomPathInstance(t, r, target)
	opt := DefaultOptions()
	opt.Kernel = KernelAstar
	checkAgainstOracle(t, in, opt, NewWorkspace(), fmt.Sprintf("seed %d trial %d", seed, target))
}

// TestIncumbentCost pins the incumbent pass: on the optimal reconnection it
// reproduces the search's own head cost bit for bit (same recurrence, same
// float operations in the same order), on any other legal walk it is no
// smaller, and a walk the search could not take is rejected.
func TestIncumbentCost(t *testing.T) {
	g, tail, head, blocked := benchPathInstance(t)
	ws := NewWorkspace()
	opt := DefaultOptions()
	for _, L := range []int{1, 2, 3, 6} {
		path, err := BufferAwarePath(g, tail, head, L, blocked, nil, opt, ws)
		if err != nil {
			t.Fatal(err)
		}
		best := headCost(ws, g, head, L)
		optimal := slices.Clone(path)
		slices.Reverse(optimal)
		ws.begin(g.NumEdges())
		if u, ok := ws.incumbentCost(g, optimal, tail, head, L, blocked, opt, true); !ok || math.Float64bits(u) != math.Float64bits(best) {
			t.Fatalf("L=%d: incumbent cost of the optimal path = %v (ok=%v), search cost %v", L, u, ok, best)
		}
		other := benchIncumbent(t, g, tail, head, blocked)
		ws.begin(g.NumEdges())
		if u, ok := ws.incumbentCost(g, other, tail, head, L, blocked, opt, true); !ok || u < best {
			t.Fatalf("L=%d: incumbent cost of another legal walk = %v (ok=%v), below the optimum %v", L, u, ok, best)
		}
	}
	walk := benchIncumbent(t, g, tail, head, blocked)
	gap := slices.Delete(slices.Clone(walk), 2, 3)
	blockedStep := slices.Clone(blocked)
	blockedStep[g.TileIndex(walk[len(walk)/2])] = true
	// A walk that reaches the head, steps off and comes back.
	var off geom.Pt
	nbrs, _ := g.Adjacency(g.TileIndex(head))
	for _, v := range nbrs {
		if !blocked[v] {
			off = g.TileAt(int(v))
		}
	}
	viaHead := append(slices.Clone(walk), off, head)
	for name, tc := range map[string]struct {
		walk    []geom.Pt
		blocked []bool
	}{
		"empty":          {nil, blocked},
		"wrong tail":     {walk[1:], blocked},
		"wrong head":     {walk[:len(walk)-1], blocked},
		"non-adjacent":   {gap, blocked},
		"blocked step":   {walk, blockedStep},
		"head in middle": {viaHead, blocked},
	} {
		ws.begin(g.NumEdges())
		if _, ok := ws.incumbentCost(g, tc.walk, tail, head, 6, tc.blocked, opt, true); ok {
			t.Errorf("%s: illegal walk accepted as an incumbent", name)
		}
	}
}
