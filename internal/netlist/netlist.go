// Package netlist defines the problem input of the buffer/wire planning
// formulation: pins, multi-sink global nets with per-net tile length
// constraints L_i, and circuits that bundle the nets with the chip tiling
// and the per-tile buffer-site budget B(v).
package netlist

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/geom"
)

// Input bounds enforced by Validate and ReadJSON. Circuits are accepted
// from untrusted network bodies (the planning service's POST endpoints),
// so structurally absurd instances must fail fast with a precise error
// instead of driving the pipeline into huge allocations or confusing
// failures deep inside Run.
const (
	// MaxJSONBytes is ReadJSON's default decoder limit. The largest suite
	// benchmark serializes to well under 1 MiB; 64 MiB leaves two orders
	// of magnitude of headroom for dense industrial instances.
	MaxJSONBytes = 64 << 20
	// MaxTiles bounds GridW*GridH. 1<<24 (16.7M tiles) is ~3000x the
	// paper's finest tiling and keeps every per-tile allocation sane.
	MaxTiles = 1 << 24
	// MaxSinksPerNet bounds a single net's fan-out; the suite's largest
	// nets have tens of sinks.
	MaxSinksPerNet = 1 << 16
)

// Pin is a net terminal: a chip-coordinate location and the tile containing
// it. Tile must be consistent with Pos for the owning circuit's tiling;
// Circuit.Validate checks this.
type Pin struct {
	Tile geom.Pt  `json:"tile"`
	Pos  geom.FPt `json:"pos"`
}

// Net is a global signal net with one source (driver) and one or more sinks.
// L is the net's tile length constraint: the maximum total tile units of
// interconnect that the driver or any buffer inserted on the net may drive.
type Net struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Source Pin    `json:"source"`
	Sinks  []Pin  `json:"sinks"`
	L      int    `json:"l"`
}

// NumPins returns the total terminal count (source + sinks).
func (n *Net) NumPins() int { return 1 + len(n.Sinks) }

// Circuit is a complete planning instance: the tiling of the chip, the
// global nets, the per-tile buffer-site counts, and (for baselines and
// reporting) the macro-block outlines the floorplan was built from.
type Circuit struct {
	Name  string `json:"name"`
	GridW int    `json:"grid_w"` // tiles in x
	GridH int    `json:"grid_h"` // tiles in y
	// TileUm is the side length of a (square) tile in micrometers.
	TileUm float64 `json:"tile_um"`
	Nets   []*Net  `json:"nets"`
	// BufferSites holds B(v) per tile in row-major order (y*GridW + x).
	BufferSites []int `json:"buffer_sites"`
	// Blocks are the floorplan macro outlines in chip coordinates.
	Blocks []geom.Rect `json:"blocks"`
	// NumPads records how many terminals are chip I/O pads (statistics only).
	NumPads int `json:"num_pads"`
}

// NumTiles returns the number of tiles in the grid.
func (c *Circuit) NumTiles() int { return c.GridW * c.GridH }

// TileIndex maps a tile coordinate to its row-major index. It panics on
// out-of-grid coordinates; use InGrid to test first.
func (c *Circuit) TileIndex(p geom.Pt) int {
	if !c.InGrid(p) {
		panic(fmt.Sprintf("netlist: tile %v outside %dx%d grid", p, c.GridW, c.GridH))
	}
	return p.Y*c.GridW + p.X
}

// InGrid reports whether the tile coordinate lies inside the grid.
func (c *Circuit) InGrid(p geom.Pt) bool {
	return p.X >= 0 && p.X < c.GridW && p.Y >= 0 && p.Y < c.GridH
}

// TileOf returns the tile containing a chip-coordinate point, clamped to the
// grid so boundary pads at the exact chip edge land in the outermost tile.
func (c *Circuit) TileOf(p geom.FPt) geom.Pt {
	tx := geom.Clamp(int(p.X/c.TileUm), 0, c.GridW-1)
	ty := geom.Clamp(int(p.Y/c.TileUm), 0, c.GridH-1)
	return geom.Pt{X: tx, Y: ty}
}

// ChipW returns the chip width in micrometers.
func (c *Circuit) ChipW() float64 { return float64(c.GridW) * c.TileUm }

// ChipH returns the chip height in micrometers.
func (c *Circuit) ChipH() float64 { return float64(c.GridH) * c.TileUm }

// TotalSinks returns the sink count over all nets.
func (c *Circuit) TotalSinks() int {
	n := 0
	for _, net := range c.Nets {
		n += len(net.Sinks)
	}
	return n
}

// TotalBufferSites returns the sum of B(v) over all tiles.
func (c *Circuit) TotalBufferSites() int {
	n := 0
	for _, b := range c.BufferSites {
		n += b
	}
	return n
}

// Validate checks structural consistency: positive and bounded grid and
// tile size, finite coordinates, the buffer-site slice length, pin/tile
// agreement, per-net constraints, and unique net IDs. It returns the first
// problem found. The finiteness and size bounds exist because circuits
// arrive from untrusted network input: a NaN coordinate or an absurd grid
// must be rejected here, with a precise error, not surface as a confusing
// failure deep inside Run.
func (c *Circuit) Validate() error {
	if c.GridW <= 0 || c.GridH <= 0 {
		return fmt.Errorf("netlist: %s: grid %dx%d must be positive", c.Name, c.GridW, c.GridH)
	}
	// The product is computed in int64 so a huge GridW*GridH is caught
	// rather than overflowing NumTiles.
	if int64(c.GridW)*int64(c.GridH) > MaxTiles {
		return fmt.Errorf("netlist: %s: grid %dx%d has %d tiles, above the %d bound",
			c.Name, c.GridW, c.GridH, int64(c.GridW)*int64(c.GridH), MaxTiles)
	}
	if c.TileUm <= 0 || math.IsInf(c.TileUm, 0) || math.IsNaN(c.TileUm) {
		return fmt.Errorf("netlist: %s: tile size %g must be positive and finite", c.Name, c.TileUm)
	}
	if c.NumPads < 0 {
		return fmt.Errorf("netlist: %s: negative pad count %d", c.Name, c.NumPads)
	}
	if len(c.BufferSites) != c.NumTiles() {
		return fmt.Errorf("netlist: %s: %d buffer-site entries for %d tiles",
			c.Name, len(c.BufferSites), c.NumTiles())
	}
	for i, b := range c.BufferSites {
		if b < 0 {
			return fmt.Errorf("netlist: %s: tile %d has negative buffer sites %d", c.Name, i, b)
		}
	}
	// A net is a duplicate when an earlier net has its ID. A stable sort of
	// the net indices by ID finds the first one in one allocation, where a
	// set of IDs would grow with the net count.
	byID := make([]int, len(c.Nets))
	for i := range byID {
		byID[i] = i
	}
	slices.SortStableFunc(byID, func(a, b int) int { return cmp.Compare(c.Nets[a].ID, c.Nets[b].ID) })
	dup := len(c.Nets)
	for k := 1; k < len(byID); k++ {
		if c.Nets[byID[k]].ID == c.Nets[byID[k-1]].ID {
			dup = min(dup, byID[k])
		}
	}
	for i, n := range c.Nets {
		if i == dup {
			return fmt.Errorf("netlist: %s: duplicate net id %d", c.Name, n.ID)
		}
		if len(n.Sinks) == 0 {
			return fmt.Errorf("netlist: %s: net %d has no sinks", c.Name, n.ID)
		}
		if len(n.Sinks) > MaxSinksPerNet {
			return fmt.Errorf("netlist: %s: net %d has %d sinks, above the %d bound",
				c.Name, n.ID, len(n.Sinks), MaxSinksPerNet)
		}
		if n.L < 1 {
			return fmt.Errorf("netlist: %s: net %d has length constraint %d < 1", c.Name, n.ID, n.L)
		}
		if err := c.validatePin(n, n.Source); err != nil {
			return err
		}
		for _, p := range n.Sinks {
			if err := c.validatePin(n, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// validatePin checks one of net n's pins: a finite position inside the
// grid, in the tile the pin records.
func (c *Circuit) validatePin(n *Net, p Pin) error {
	// Finiteness must be checked before TileOf: int(NaN) and int(±Inf) are
	// not meaningful tile coordinates.
	if !finitePt(p.Pos) {
		return fmt.Errorf("netlist: %s: net %d pin position (%g, %g) is not finite",
			c.Name, n.ID, p.Pos.X, p.Pos.Y)
	}
	if !c.InGrid(p.Tile) {
		return fmt.Errorf("netlist: %s: net %d pin tile %v outside grid", c.Name, n.ID, p.Tile)
	}
	if got := c.TileOf(p.Pos); got != p.Tile {
		return fmt.Errorf("netlist: %s: net %d pin at %v maps to tile %v, recorded %v",
			c.Name, n.ID, p.Pos, got, p.Tile)
	}
	return nil
}

// finitePt reports whether both coordinates are finite (no NaN, no ±Inf).
func finitePt(p geom.FPt) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// WriteJSON serializes the circuit with indentation.
func (c *Circuit) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadJSON deserializes and validates a circuit, refusing inputs larger
// than MaxJSONBytes. Use ReadJSONLimit to choose a different bound.
func ReadJSON(r io.Reader) (*Circuit, error) {
	return ReadJSONLimit(r, MaxJSONBytes)
}

// ReadJSONLimit deserializes and validates a circuit, reading at most
// limit bytes (limit <= 0 means no bound — only for trusted local input).
// Oversized and trailing-garbage inputs fail with precise errors, so a
// malformed network body is rejected at the boundary instead of driving
// Validate (or worse, Run) into confusing failures.
func ReadJSONLimit(r io.Reader, limit int64) (*Circuit, error) {
	if limit > 0 {
		// One extra byte distinguishes "exactly limit" from "over limit".
		r = io.LimitReader(r, limit+1)
	}
	cr := &countingReader{r: r}
	dec := json.NewDecoder(cr)
	var c Circuit
	err := dec.Decode(&c)
	if limit > 0 && cr.n > limit {
		return nil, fmt.Errorf("netlist: input exceeds %d bytes", limit)
	}
	if err == nil && dec.More() {
		return nil, fmt.Errorf("netlist: trailing data after circuit JSON")
	}
	if err != nil {
		return nil, fmt.Errorf("netlist: decode: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// countingReader tracks how many bytes the decoder actually consumed, so
// the size-limit error is distinguishable from a syntax error.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// DecomposeTwoPin returns a copy of the circuit in which every multi-sink
// net is split into one two-pin net per sink (same source), the construction
// the paper uses when comparing against BBP/FR. Net IDs are renumbered
// densely; names carry a "/k" suffix for split nets.
func (c *Circuit) DecomposeTwoPin() *Circuit {
	out := &Circuit{
		Name:        c.Name,
		GridW:       c.GridW,
		GridH:       c.GridH,
		TileUm:      c.TileUm,
		BufferSites: append([]int(nil), c.BufferSites...),
		Blocks:      append([]geom.Rect(nil), c.Blocks...),
		NumPads:     c.NumPads,
	}
	id := 0
	for _, n := range c.Nets {
		for k, s := range n.Sinks {
			name := n.Name
			if len(n.Sinks) > 1 {
				name = fmt.Sprintf("%s/%d", n.Name, k)
			}
			out.Nets = append(out.Nets, &Net{
				ID:     id,
				Name:   name,
				Source: n.Source,
				Sinks:  []Pin{s},
				L:      n.L,
			})
			id++
		}
	}
	return out
}
