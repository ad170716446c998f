// Package tile implements the tile graph G(V,E) of the paper's problem
// formulation: tiles carry buffer sites B(v) and current buffer usage b(v);
// edges between neighboring tiles carry wire capacity W(e) and current usage
// w(e). The package provides the congestion-based wire cost of Eq. (1), the
// buffer-site cost of Eq. (2) including the probabilistic demand term p(v),
// and the congestion statistics reported in the experiments.
package tile

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Graph is a W x H tile graph. Tiles are indexed row-major (y*W + x).
// Horizontal edges connect (x,y)-(x+1,y); vertical edges connect
// (x,y)-(x,y+1). The zero value is unusable; construct with New.
type Graph struct {
	W, H int

	cap []int // per-edge wire capacity W(e)
	use []int // per-edge wire usage w(e)

	sites []int     // per-tile buffer sites B(v)
	used  []int     // per-tile used buffer sites b(v)
	prob  []float64 // per-tile demand p(v) from unprocessed nets

	// Flat adjacency tables, precomputed once in New and shared (read-only)
	// by Clone: row v of the stride-4 arrays holds tile v's grid neighbors
	// and the joining edge indices, in the same +x, -x, +y, -y order as
	// Neighbors, -1 padded past adjDeg[v] entries. The router's wavefront
	// iterates these int32 rows instead of round-tripping geom.Pt values
	// through InGrid/EdgeBetween per relaxation.
	adjNbr  []int32
	adjEdge []int32
	adjDeg  []uint8
}

// New creates a graph with the given dimensions, per-tile buffer sites
// (row-major, may be nil for all-zero), and a uniform edge capacity.
func New(w, h int, sites []int, capacity int) (*Graph, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("tile: grid %dx%d must be positive", w, h)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("tile: capacity %d must be >= 1", capacity)
	}
	// Tile and edge indices travel through int32 adjacency tables and
	// router predecessor labels; a grid this large could not be allocated
	// anyway, so reject it before any index can wrap.
	if int64(w)*int64(h) > math.MaxInt32 {
		return nil, fmt.Errorf("tile: grid %dx%d exceeds %d tiles", w, h, int64(math.MaxInt32))
	}
	n := w * h
	if sites == nil {
		sites = make([]int, n)
	}
	if len(sites) != n {
		return nil, fmt.Errorf("tile: %d site entries for %d tiles", len(sites), n)
	}
	g := &Graph{
		W:     w,
		H:     h,
		cap:   make([]int, numEdges(w, h)),
		use:   make([]int, numEdges(w, h)),
		sites: append([]int(nil), sites...),
		used:  make([]int, n),
		prob:  make([]float64, n),
	}
	for i := range g.cap {
		g.cap[i] = capacity
	}
	g.buildAdjacency()
	return g, nil
}

// buildAdjacency fills the flat neighbor/edge tables. Neighbor order per
// tile matches Neighbors exactly (+x, -x, +y, -y, out-of-grid skipped) so
// index-based wavefront relaxation visits edges in the identical order.
func (g *Graph) buildAdjacency() {
	n := g.W * g.H
	g.adjNbr = make([]int32, 4*n)
	g.adjEdge = make([]int32, 4*n)
	g.adjDeg = make([]uint8, n)
	for i := range g.adjNbr {
		g.adjNbr[i] = -1
		g.adjEdge[i] = -1
	}
	var nbuf []geom.Pt
	for v := 0; v < n; v++ {
		pv := g.TileAt(v)
		nbuf = g.Neighbors(pv, nbuf[:0])
		for k, pw := range nbuf {
			e, ok := g.EdgeBetween(pv, pw)
			if !ok {
				panic(fmt.Sprintf("tile: neighbor %v of %v has no edge", pw, pv))
			}
			//rabid:allow narrowcast tile and edge indices are < NumTiles <= MaxInt32, enforced in New
			g.adjNbr[4*v+k] = int32(g.TileIndex(pw))
			//rabid:allow narrowcast tile and edge indices are < NumTiles <= MaxInt32, enforced in New
			g.adjEdge[4*v+k] = int32(e)
		}
		//rabid:allow narrowcast at most 4 grid neighbors
		g.adjDeg[v] = uint8(len(nbuf))
	}
}

// Adjacency returns tile v's grid neighbors and the joining edge indices as
// parallel int32 slices in Neighbors order. The slices alias the graph's
// precomputed tables and must not be modified.
func (g *Graph) Adjacency(v int) (nbrs, edges []int32) {
	lo := 4 * v
	hi := lo + int(g.adjDeg[v])
	return g.adjNbr[lo:hi:hi], g.adjEdge[lo:hi:hi]
}

func numEdges(w, h int) int { return (w-1)*h + w*(h-1) }

// NumEdges returns the edge count of the graph.
func (g *Graph) NumEdges() int { return numEdges(g.W, g.H) }

// NumTiles returns the tile count.
func (g *Graph) NumTiles() int { return g.W * g.H }

// TileIndex converts a tile coordinate to its row-major index.
func (g *Graph) TileIndex(p geom.Pt) int { return p.Y*g.W + p.X }

// TileAt converts a row-major index back to a tile coordinate.
func (g *Graph) TileAt(i int) geom.Pt { return geom.Pt{X: i % g.W, Y: i / g.W} }

// InGrid reports whether the coordinate lies inside the grid.
func (g *Graph) InGrid(p geom.Pt) bool {
	return p.X >= 0 && p.X < g.W && p.Y >= 0 && p.Y < g.H
}

// EdgeBetween returns the edge index joining two tiles and whether they are
// grid neighbors.
func (g *Graph) EdgeBetween(a, b geom.Pt) (int, bool) {
	if !g.InGrid(a) || !g.InGrid(b) {
		return 0, false
	}
	dx, dy := b.X-a.X, b.Y-a.Y
	switch {
	case dy == 0 && (dx == 1 || dx == -1):
		x := geom.Min(a.X, b.X)
		return a.Y*(g.W-1) + x, true
	case dx == 0 && (dy == 1 || dy == -1):
		y := geom.Min(a.Y, b.Y)
		return (g.W-1)*g.H + y*g.W + a.X, true
	default:
		return 0, false
	}
}

// Neighbors appends the grid neighbors of p to dst and returns it. Using an
// appended slice keeps wavefront expansion allocation-free.
func (g *Graph) Neighbors(p geom.Pt, dst []geom.Pt) []geom.Pt {
	for _, d := range [4]geom.Pt{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}} {
		q := p.Add(d)
		if g.InGrid(q) {
			dst = append(dst, q)
		}
	}
	return dst
}

// --- wire usage -------------------------------------------------------

// Capacity returns W(e) for an edge index.
func (g *Graph) Capacity(e int) int { return g.cap[e] }

// Usage returns w(e) for an edge index.
func (g *Graph) Usage(e int) int { return g.use[e] }

// SetCapacity overrides the capacity of one edge (non-uniform capacities,
// e.g. reduced capacity over macros). Capacity 0 marks a blocked edge — no
// wires may legally cross (WireCost is +Inf and any usage is pure
// overflow); routers still traverse such edges at the OverflowPenalty
// clamp, exactly like an over-capacity edge.
func (g *Graph) SetCapacity(e, c int) {
	if c < 0 {
		panic(fmt.Sprintf("tile: capacity %d must be >= 0", c))
	}
	g.cap[e] = c
}

// AddWire records one wire crossing edge e.
func (g *Graph) AddWire(e int) {
	g.use[e]++
}

// RemoveWire removes one wire crossing edge e. It panics when the edge has
// no recorded usage, which would indicate corrupted rip-up bookkeeping.
func (g *Graph) RemoveWire(e int) {
	if g.use[e] == 0 {
		panic(fmt.Sprintf("tile: RemoveWire on empty edge %d", e))
	}
	g.use[e]--
}

// WireCost is the congestion cost of Eq. (1) for one additional wire across
// edge e: (w+1)/(W-w) while w/W < 1, +Inf at or beyond capacity.
func (g *Graph) WireCost(e int) float64 {
	w, cp := g.use[e], g.cap[e]
	if w >= cp {
		return math.Inf(1)
	}
	return float64(w+1) / float64(cp-w)
}

// EdgeUtil returns the utilization w(e)/W(e) of edge e, guarded for
// blocked (zero-capacity) edges: an unused blocked edge reads 0, and each
// wire illegally crossing one counts as a full capacity of overflow —
// finite either way, so heat snapshots and congestion gauges can never
// carry the +Inf/NaN a raw division would produce (the analogue of the
// zero-sites guard in SiteCost).
func (g *Graph) EdgeUtil(e int) float64 {
	w, cp := g.use[e], g.cap[e]
	if cp <= 0 {
		return float64(w)
	}
	return float64(w) / float64(cp)
}

// --- buffer sites -----------------------------------------------------

// Sites returns B(v) for a tile index.
func (g *Graph) Sites(v int) int { return g.sites[v] }

// UsedSites returns b(v) for a tile index.
func (g *Graph) UsedSites(v int) int { return g.used[v] }

// AddBuffer assigns one buffer site in tile v. It panics when the tile is
// already at capacity; the planning algorithms never choose full tiles
// because SiteCost is infinite there.
func (g *Graph) AddBuffer(v int) {
	if g.used[v] >= g.sites[v] {
		panic(fmt.Sprintf("tile: AddBuffer overflows tile %d (%d/%d)", v, g.used[v], g.sites[v]))
	}
	g.used[v]++
}

// RemoveBuffer releases one buffer site in tile v.
func (g *Graph) RemoveBuffer(v int) {
	if g.used[v] == 0 {
		panic(fmt.Sprintf("tile: RemoveBuffer on empty tile %d", v))
	}
	g.used[v]--
}

// Demand returns p(v), the summed 1/L_i probabilities of unprocessed nets
// passing through tile v.
func (g *Graph) Demand(v int) float64 { return g.prob[v] }

// AddDemand adjusts p(v) by delta (negative when a net is processed).
// Accumulated floating error is clamped at zero.
func (g *Graph) AddDemand(v int, delta float64) {
	g.prob[v] += delta
	if g.prob[v] < 0 {
		g.prob[v] = 0
	}
}

// SiteCost is the buffer-site cost of Eq. (2) for tile v:
// (b + p + 1)/(B - b) while b/B < 1, +Inf when the tile is full or has no
// sites at all.
func (g *Graph) SiteCost(v int) float64 {
	b, s := g.used[v], g.sites[v]
	if s == 0 || b >= s {
		return math.Inf(1)
	}
	return (float64(b) + g.prob[v] + 1) / float64(s-b)
}

// --- statistics -------------------------------------------------------

// WireStats summarizes edge congestion: the maximum and average of
// w(e)/W(e) over all edges and the total overflow sum of max(0, w-W).
type WireStats struct {
	Max, Avg float64
	Overflow int
}

// WireCongestion computes the wire congestion statistics.
func (g *Graph) WireCongestion() WireStats {
	var st WireStats
	if len(g.use) == 0 {
		return st
	}
	sum := 0.0
	for e := range g.use {
		c := g.EdgeUtil(e)
		sum += c
		if c > st.Max {
			st.Max = c
		}
		if over := g.use[e] - g.cap[e]; over > 0 {
			st.Overflow += over
		}
	}
	st.Avg = sum / float64(len(g.use))
	return st
}

// BufferStats summarizes buffer-site usage: maximum and average of
// b(v)/B(v) over tiles with sites, and the total buffer count.
type BufferStats struct {
	Max, Avg float64
	Buffers  int
}

// BufferDensity computes the buffer-site usage statistics.
func (g *Graph) BufferDensity() BufferStats {
	var st BufferStats
	tiles := 0
	sum := 0.0
	for v := range g.sites {
		st.Buffers += g.used[v]
		if g.sites[v] == 0 {
			continue
		}
		tiles++
		d := float64(g.used[v]) / float64(g.sites[v])
		sum += d
		if d > st.Max {
			st.Max = d
		}
	}
	if tiles > 0 {
		st.Avg = sum / float64(tiles)
	}
	return st
}

// ResetWires clears all wire usage (used when a stage rebuilds routing from
// scratch).
func (g *Graph) ResetWires() {
	for i := range g.use {
		g.use[i] = 0
	}
}

// ResetBuffers clears all buffer usage.
func (g *Graph) ResetBuffers() {
	for i := range g.used {
		g.used[i] = 0
	}
}

// Clone returns a deep copy of the graph. The adjacency tables depend only
// on the immutable dimensions and are shared, not copied.
func (g *Graph) Clone() *Graph {
	return &Graph{
		W:       g.W,
		H:       g.H,
		cap:     append([]int(nil), g.cap...),
		use:     append([]int(nil), g.use...),
		sites:   append([]int(nil), g.sites...),
		used:    append([]int(nil), g.used...),
		prob:    append([]float64(nil), g.prob...),
		adjNbr:  g.adjNbr,
		adjEdge: g.adjEdge,
		adjDeg:  g.adjDeg,
	}
}

// CalibrateCapacity returns a uniform edge capacity such that the average
// congestion of the given per-edge usage equals roughly targetAvg. The paper
// never tabulates W(e); this calibration reproduces its observed Stage-1
// average congestion band (see DESIGN.md). The result is always >= 1.
func CalibrateCapacity(use []int, numEdges int, targetAvg float64) int {
	if numEdges <= 0 || targetAvg <= 0 {
		return 1
	}
	total := 0
	for _, u := range use {
		total += u
	}
	c := int(math.Ceil(float64(total) / (float64(numEdges) * targetAvg)))
	if c < 1 {
		c = 1
	}
	return c
}

// UsageSnapshot returns a copy of the per-edge usage, for calibration.
func (g *Graph) UsageSnapshot() []int { return append([]int(nil), g.use...) }
