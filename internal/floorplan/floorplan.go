// Package floorplan generates the synthetic benchmark circuits used by the
// experiments. The paper evaluates on six CBL/MCNC floorplans (apte, xerox,
// hp, ami33, ami49, playout) and four random circuits (ac3, xc5, hc7, a9c3)
// obtained from the authors of the BBP work; those inputs are not
// distributable, so this package clones their published Table I statistics
// exactly — block, net, pad and sink counts, grid, tile area, length
// constraint, and buffer-site budget — over a deterministic, seeded
// construction (see DESIGN.md, substitutions).
//
// Construction: the chip is guillotine-partitioned into the given number of
// macro blocks separated by routing channels; pads sit on the chip
// boundary; nets connect randomly chosen block/pad terminals with pin
// positions on block perimeters; buffer sites are scattered uniformly over
// all tiles outside a random blocked square region (the paper's "nine by
// nine cache-like object" at the base 30-tile grid, scaled with the grid).
package floorplan

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// BufferSiteAreaUm2 is the silicon area of one buffer site. The value is
// reverse-engineered from Table I's "% chip area" column, which is
// consistent with ~400 um^2 per site across all ten circuits.
const BufferSiteAreaUm2 = 400.0

// Spec describes one benchmark circuit with the paper's Table I statistics.
type Spec struct {
	Name   string
	Cells  int // macro blocks
	Nets   int
	Pads   int
	Sinks  int
	GridW  int     // tiles in x at the base tiling
	GridH  int     // tiles in y at the base tiling
	TileMm float64 // base tile area in mm^2
	L      int     // tile length constraint L_i
	Sites  int     // total buffer sites
	Seed   int64
}

// TileUm returns the base tile side length in micrometers.
func (s Spec) TileUm() float64 { return math.Sqrt(s.TileMm) * 1000 }

// ChipWUm and ChipHUm return the fixed chip dimensions in micrometers.
func (s Spec) ChipWUm() float64 { return float64(s.GridW) * s.TileUm() }

// ChipHUm returns the chip height in micrometers.
func (s Spec) ChipHUm() float64 { return float64(s.GridH) * s.TileUm() }

// SitePercentOfChip returns the percentage of chip area occupied by the
// buffer sites (the last column of Table I).
func (s Spec) SitePercentOfChip() float64 {
	return float64(s.Sites) * BufferSiteAreaUm2 / (s.ChipWUm() * s.ChipHUm()) * 100
}

// Suite returns the ten benchmark circuits of Table I. The first six mirror
// the CBL/MCNC floorplans, the last four the random circuits of [8].
func Suite() []Spec {
	return []Spec{
		{Name: "apte", Cells: 9, Nets: 77, Pads: 73, Sinks: 141, GridW: 30, GridH: 33, TileMm: 0.36, L: 6, Sites: 1200, Seed: 101},
		{Name: "xerox", Cells: 10, Nets: 171, Pads: 2, Sinks: 390, GridW: 30, GridH: 30, TileMm: 0.35, L: 5, Sites: 3000, Seed: 102},
		{Name: "hp", Cells: 11, Nets: 68, Pads: 45, Sinks: 187, GridW: 30, GridH: 30, TileMm: 0.42, L: 6, Sites: 2350, Seed: 103},
		{Name: "ami33", Cells: 33, Nets: 112, Pads: 43, Sinks: 324, GridW: 33, GridH: 30, TileMm: 0.46, L: 5, Sites: 2750, Seed: 104},
		{Name: "ami49", Cells: 49, Nets: 368, Pads: 22, Sinks: 493, GridW: 30, GridH: 30, TileMm: 0.67, L: 5, Sites: 11450, Seed: 105},
		{Name: "playout", Cells: 62, Nets: 1294, Pads: 192, Sinks: 1663, GridW: 33, GridH: 30, TileMm: 0.75, L: 6, Sites: 27550, Seed: 106},
		{Name: "ac3", Cells: 27, Nets: 200, Pads: 75, Sinks: 409, GridW: 30, GridH: 30, TileMm: 0.49, L: 6, Sites: 3550, Seed: 107},
		{Name: "xc5", Cells: 50, Nets: 975, Pads: 2, Sinks: 2149, GridW: 30, GridH: 30, TileMm: 0.54, L: 6, Sites: 13550, Seed: 108},
		{Name: "hc7", Cells: 77, Nets: 430, Pads: 51, Sinks: 1318, GridW: 30, GridH: 30, TileMm: 1.04, L: 5, Sites: 7780, Seed: 109},
		{Name: "a9c3", Cells: 147, Nets: 1148, Pads: 22, Sinks: 1526, GridW: 30, GridH: 30, TileMm: 1.08, L: 5, Sites: 12780, Seed: 110},
	}
}

// BySuiteName returns the suite spec with the given name.
func BySuiteName(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("floorplan: unknown benchmark %q", name)
}

// Options override parts of a Spec for the variation experiments.
type Options struct {
	// GridW/GridH override the tiling (Table IV). The chip area is fixed by
	// the spec; the tile size rescales. Zero keeps the base grid.
	GridW, GridH int
	// Sites overrides the buffer-site budget (Table III). Zero keeps the
	// spec's budget.
	Sites int
	// Seed overrides the spec seed. Zero keeps it.
	Seed int64
}

// Generate builds the circuit for a spec. The construction is fully
// deterministic for a given (spec, options) pair.
func Generate(spec Spec, opt Options) (*netlist.Circuit, error) {
	if spec.Cells < 1 || spec.Nets < 1 || spec.Sinks < spec.Nets {
		return nil, fmt.Errorf("floorplan: %s: degenerate spec", spec.Name)
	}
	gridW, gridH := spec.GridW, spec.GridH
	if opt.GridW > 0 {
		gridW = opt.GridW
	}
	if opt.GridH > 0 {
		gridH = opt.GridH
	}
	if gridW < 2 || gridH < 2 {
		return nil, fmt.Errorf("floorplan: %s: grid %dx%d too small", spec.Name, gridW, gridH)
	}
	sites := spec.Sites
	if opt.Sites > 0 {
		sites = opt.Sites
	}
	seed := spec.Seed
	if opt.Seed != 0 {
		seed = opt.Seed
	}
	// The chip is fixed; an overridden grid rescales the tiles. The paper's
	// Table IV grids keep the chip aspect ratio, so tiles stay square.
	tileUm := spec.ChipWUm() / float64(gridW)
	if hUm := spec.ChipHUm() / float64(gridH); math.Abs(hUm-tileUm) > 0.01*tileUm {
		return nil, fmt.Errorf("floorplan: %s: grid %dx%d does not preserve the chip aspect ratio",
			spec.Name, gridW, gridH)
	}
	// The length constraint is physical (a slew rule of thumb in
	// millimeters); when the tiling is refined or coarsened, L_i scales so
	// that L_i * tile stays constant — Section IV-B: "a finer tiling means
	// one can design a length constraint that is more appropriate".
	spec.L = geom.Max(1, int(math.Round(float64(spec.L)*float64(gridW)/float64(spec.GridW))))
	rng := rand.New(rand.NewSource(seed))
	c := &netlist.Circuit{
		Name:    spec.Name,
		GridW:   gridW,
		GridH:   gridH,
		TileUm:  tileUm,
		NumPads: spec.Pads,
	}
	chip := geom.Rect{Hi: geom.FPt{X: spec.ChipWUm(), Y: spec.ChipHUm()}}
	// Abstract net connectivity (terminal t < Cells is a block, t >= Cells
	// is pad t-Cells) draws from the rng before the blocks do: every step
	// below consumes the one rng in turn, so this order fixes every
	// generated circuit (TestSuiteCircuitDigests pins it).
	terms := assignTerminals(rng, spec)
	c.Blocks = packBlocks(rng, chip, spec.Cells)
	pads := placePads(rng, chip, spec.Pads)
	realizeNets(rng, c, spec, terms, pads)
	scatterSites(rng, c, sites)
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("floorplan: %s: generated circuit invalid: %w", spec.Name, err)
	}
	return c, nil
}

// packBlocks guillotine-partitions the chip into n block rectangles and
// shrinks each to leave routing channels.
func packBlocks(rng *rand.Rand, chip geom.Rect, n int) []geom.Rect {
	rects := []geom.Rect{chip}
	for len(rects) < n {
		// Split the largest rect.
		bi := 0
		for i, r := range rects {
			if r.Area() > rects[bi].Area() {
				bi = i
			}
		}
		r := rects[bi]
		ratio := 0.35 + 0.3*rng.Float64()
		var a, b geom.Rect
		if r.W() >= r.H() {
			cut := r.Lo.X + r.W()*ratio
			a = geom.Rect{Lo: r.Lo, Hi: geom.FPt{X: cut, Y: r.Hi.Y}}
			b = geom.Rect{Lo: geom.FPt{X: cut, Y: r.Lo.Y}, Hi: r.Hi}
		} else {
			cut := r.Lo.Y + r.H()*ratio
			a = geom.Rect{Lo: r.Lo, Hi: geom.FPt{X: r.Hi.X, Y: cut}}
			b = geom.Rect{Lo: geom.FPt{X: r.Lo.X, Y: cut}, Hi: r.Hi}
		}
		rects[bi] = a
		rects = append(rects, b)
	}
	// Shrink for channels: 3% of the smaller dimension on each side.
	out := make([]geom.Rect, len(rects))
	for i, r := range rects {
		m := 0.03 * math.Min(r.W(), r.H())
		out[i] = geom.Rect{
			Lo: geom.FPt{X: r.Lo.X + m, Y: r.Lo.Y + m},
			Hi: geom.FPt{X: r.Hi.X - m, Y: r.Hi.Y - m},
		}
	}
	return out
}

// placePads distributes pad locations around the chip boundary.
func placePads(rng *rand.Rand, chip geom.Rect, n int) []geom.FPt {
	pads := make([]geom.FPt, n)
	per := 2 * (chip.W() + chip.H())
	for i := range pads {
		// Even spacing with jitter, walking the perimeter.
		d := (float64(i) + 0.3 + 0.4*rng.Float64()) / float64(n) * per
		pads[i] = perimeterPoint(chip, d)
	}
	return pads
}

// perimeterPoint maps a distance along the boundary (from the lower-left
// corner, counterclockwise) to a point.
func perimeterPoint(chip geom.Rect, d float64) geom.FPt {
	w, h := chip.W(), chip.H()
	d = math.Mod(d, 2*(w+h))
	switch {
	case d < w:
		return geom.FPt{X: chip.Lo.X + d, Y: chip.Lo.Y}
	case d < w+h:
		return geom.FPt{X: chip.Hi.X, Y: chip.Lo.Y + (d - w)}
	case d < 2*w+h:
		return geom.FPt{X: chip.Hi.X - (d - w - h), Y: chip.Hi.Y}
	default:
		return geom.FPt{X: chip.Lo.X, Y: chip.Lo.Y + (2*w + h + h - d)}
	}
}

// blockPin returns a random point on the block's perimeter.
func blockPin(rng *rand.Rand, b geom.Rect) geom.FPt {
	per := 2 * (b.W() + b.H())
	return perimeterPoint(b, rng.Float64()*per)
}

// assignTerminals chooses, per net, the terminal list: index 0 is the
// source; terminals below spec.Cells are blocks, the rest pads. Sink
// counts are distributed so the totals match the spec exactly.
func assignTerminals(rng *rand.Rand, spec Spec) [][]int {
	counts := make([]int, spec.Nets)
	for i := range counts {
		counts[i] = 1
	}
	for extra := spec.Sinks - spec.Nets; extra > 0; extra-- {
		counts[rng.Intn(spec.Nets)]++
	}
	terms := make([][]int, spec.Nets)
	for i := range terms {
		list := make([]int, counts[i]+1)
		for k := range list {
			list[k] = rng.Intn(spec.Cells + spec.Pads)
		}
		terms[i] = list
	}
	return terms
}

// realizeNets turns the abstract terminal lists into pins on block
// perimeters and pads.
func realizeNets(rng *rand.Rand, c *netlist.Circuit, spec Spec, terms [][]int, pads []geom.FPt) {
	terminal := func(t int) geom.FPt {
		if t < len(c.Blocks) {
			return blockPin(rng, c.Blocks[t])
		}
		return pads[t-len(c.Blocks)]
	}
	mkPin := func(p geom.FPt) netlist.Pin {
		// Keep positions strictly inside the chip so tiles are exact.
		p.X = math.Min(math.Max(p.X, 0), c.ChipW()-1e-6)
		p.Y = math.Min(math.Max(p.Y, 0), c.ChipH()-1e-6)
		return netlist.Pin{Tile: c.TileOf(p), Pos: p}
	}
	for i, list := range terms {
		n := &netlist.Net{
			ID:     i,
			Name:   fmt.Sprintf("%s_n%d", spec.Name, i),
			Source: mkPin(terminal(list[0])),
			L:      spec.L,
		}
		for _, t := range list[1:] {
			n.Sinks = append(n.Sinks, mkPin(terminal(t)))
		}
		c.Nets = append(c.Nets, n)
	}
}

// scatterSites distributes the buffer-site budget uniformly over the tiles
// outside the blocked region. The blocked square scales with the grid: 9x9
// at the paper's base 30-tile short side.
func scatterSites(rng *rand.Rand, c *netlist.Circuit, total int) {
	c.BufferSites = make([]int, c.NumTiles())
	eligible := make([]bool, c.NumTiles())
	for i := range eligible {
		eligible[i] = true
	}
	short := geom.Min(c.GridW, c.GridH)
	side := int(math.Round(0.3 * float64(short)))
	if side < 1 {
		side = 1
	}
	bx := rng.Intn(c.GridW - side + 1)
	by := rng.Intn(c.GridH - side + 1)
	for y := by; y < by+side; y++ {
		for x := bx; x < bx+side; x++ {
			eligible[y*c.GridW+x] = false
		}
	}
	var pool []int
	for i, ok := range eligible {
		if ok {
			pool = append(pool, i)
		}
	}
	for k := 0; k < total; k++ {
		c.BufferSites[pool[rng.Intn(len(pool))]]++
	}
}
