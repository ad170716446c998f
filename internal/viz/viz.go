// Package viz renders tile-graph state as ASCII heat maps and SVG: wire
// congestion, buffer-site density, floorplan blocks, and routed trees. The
// paper's Figs. 1-2 motivate exactly these views (buffer clumping between
// blocks vs. dispersed buffer sites on a tiling).
package viz

import (
	"fmt"
	"strings"

	"repro/internal/netlist"
	"repro/internal/rtree"
	"repro/internal/tile"
)

// ramp maps intensity 0..1 to a character, light to dark.
const ramp = " .:-=+*#%@"

// WireHeat returns, per tile, the maximum congestion w/W of its incident
// edges (values may exceed 1 when edges overflow).
func WireHeat(g *tile.Graph) []float64 { return WireHeatInto(g, nil) }

// WireHeatInto is WireHeat written into dst (grown as needed) and
// returned, so that a caller-held buffer serves every snapshot of a run:
// the router's per-pass heat and the pipeline's per-stage heat. Each
// tile's incident edges are read from the graph's flat adjacency, and
// utilization goes through tile.Graph.EdgeUtil, whose zero-capacity guard
// keeps every value finite: a raw w/W division would plant +Inf or NaN on
// a blocked edge and poison heat.wire observer events and downstream
// aggregation.
func WireHeatInto(g *tile.Graph, dst []float64) []float64 {
	dst = grow(dst, g.NumTiles())
	for v := range dst {
		h := 0.0
		_, edges := g.Adjacency(v)
		for _, e := range edges {
			if c := g.EdgeUtil(int(e)); c > h {
				h = c
			}
		}
		dst[v] = h
	}
	return dst
}

// BufferHeat returns, per tile, the buffer-site occupancy b/B (zero for
// tiles without sites).
func BufferHeat(g *tile.Graph) []float64 { return BufferHeatInto(g, nil) }

// BufferHeatInto is BufferHeat written into dst (grown as needed) and
// returned.
func BufferHeatInto(g *tile.Graph, dst []float64) []float64 {
	dst = grow(dst, g.NumTiles())
	for v := range dst {
		dst[v] = 0
		if s := g.Sites(v); s > 0 {
			dst[v] = float64(g.UsedSites(v)) / float64(s)
		}
	}
	return dst
}

// grow returns dst resized to n, reallocated only when too small.
func grow(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// ASCII renders a per-tile heat slice (row-major, w x h) as a character
// map, top row first (y grows upward, so row h-1 prints first). Values are
// clamped to [0, 1]; tiles at or above 1 render with the densest glyph.
func ASCII(heat []float64, w, h int) string {
	if len(heat) != w*h || w <= 0 || h <= 0 {
		return ""
	}
	var b strings.Builder
	for y := h - 1; y >= 0; y-- {
		for x := 0; x < w; x++ {
			v := heat[y*w+x]
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			idx := int(v * float64(len(ramp)-1))
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SVGOptions selects what the SVG shows.
type SVGOptions struct {
	// Routes to overlay (may be nil).
	Routes []*rtree.Tree
	// BufferTiles marks tiles whose used sites should be drawn as dots
	// (usually from the tile graph; may be nil).
	Graph *tile.Graph
	// PxPerTile scales the drawing (default 12).
	PxPerTile float64
}

// SVG renders the circuit's floorplan, wire-congestion heat, routes, and
// buffer usage as a standalone SVG document.
func SVG(c *netlist.Circuit, opt SVGOptions) string {
	px := opt.PxPerTile
	if px <= 0 {
		px = 12
	}
	W := float64(c.GridW) * px
	H := float64(c.GridH) * px
	// SVG y grows downward; chip y grows upward. Flip via yFlip.
	yFlip := func(y float64) float64 { return H - y }
	sx := px / c.TileUm // chip um -> svg px

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n", W, H, W, H)
	fmt.Fprintf(&b, `<rect width="%.0f" height="%.0f" fill="white"/>`+"\n", W, H)

	// Wire congestion heat per tile.
	if opt.Graph != nil {
		heat := WireHeat(opt.Graph)
		for v, hv := range heat {
			if hv <= 0 {
				continue
			}
			if hv > 1 {
				hv = 1
			}
			p := opt.Graph.TileAt(v)
			// Light blue to saturated red.
			r := int(255 * hv)
			g := int(64 * (1 - hv))
			bl := int(255 * (1 - hv))
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="rgb(%d,%d,%d)" fill-opacity="0.5"/>`+"\n",
				float64(p.X)*px, yFlip(float64(p.Y+1)*px), px, px, r, g, bl)
		}
	}
	// Blocks.
	for _, blk := range c.Blocks {
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="black" stroke-width="1"/>`+"\n",
			blk.Lo.X*sx, yFlip(blk.Hi.Y*sx), blk.W()*sx, blk.H()*sx)
	}
	// Routes.
	for _, rt := range opt.Routes {
		if rt == nil {
			continue
		}
		for _, pq := range rt.EdgePairs() {
			x1 := (float64(pq[0].X) + 0.5) * px
			y1 := yFlip((float64(pq[0].Y) + 0.5) * px)
			x2 := (float64(pq[1].X) + 0.5) * px
			y2 := yFlip((float64(pq[1].Y) + 0.5) * px)
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="darkgreen" stroke-width="0.8" stroke-opacity="0.6"/>`+"\n",
				x1, y1, x2, y2)
		}
	}
	// Buffer usage dots sized by count.
	if opt.Graph != nil {
		for v := 0; v < opt.Graph.NumTiles(); v++ {
			used := opt.Graph.UsedSites(v)
			if used == 0 {
				continue
			}
			p := opt.Graph.TileAt(v)
			rr := px * 0.12 * (1 + float64(used)/4)
			if rr > px/2 {
				rr = px / 2
			}
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="purple" fill-opacity="0.8"/>`+"\n",
				(float64(p.X)+0.5)*px, yFlip((float64(p.Y)+0.5)*px), rr)
		}
	}
	b.WriteString("</svg>\n")
	return b.String()
}
