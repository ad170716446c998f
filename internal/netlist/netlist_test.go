package netlist

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

// small returns a valid 4x3 two-net circuit used across tests.
func small() *Circuit {
	c := &Circuit{
		Name:        "tiny",
		GridW:       4,
		GridH:       3,
		TileUm:      100,
		BufferSites: make([]int, 12),
		NumPads:     1,
	}
	for i := range c.BufferSites {
		c.BufferSites[i] = 2
	}
	pin := func(x, y int) Pin {
		pos := geom.FPt{X: (float64(x) + 0.5) * 100, Y: (float64(y) + 0.5) * 100}
		return Pin{Tile: geom.Pt{X: x, Y: y}, Pos: pos}
	}
	c.Nets = []*Net{
		{ID: 0, Name: "n0", Source: pin(0, 0), Sinks: []Pin{pin(3, 2)}, L: 3},
		{ID: 1, Name: "n1", Source: pin(1, 1), Sinks: []Pin{pin(3, 0), pin(0, 2)}, L: 3},
	}
	return c
}

func TestValidateOK(t *testing.T) {
	if err := small().Validate(); err != nil {
		t.Fatalf("valid circuit rejected: %v", err)
	}
}

// TestValidateAllocBound: Validate checks every pin in place, so its
// allocations do not grow with the net count — the pin list it used to
// build per net made about one allocation per net on every plan and parse.
func TestValidateAllocBound(t *testing.T) {
	circuit := func(nets int) *Circuit {
		c := small()
		proto := c.Nets[1]
		c.Nets = nil
		for i := 0; i < nets; i++ {
			n := *proto
			n.ID = i
			c.Nets = append(c.Nets, &n)
		}
		return c
	}
	allocs := func(c *Circuit) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(circuit(10)), allocs(circuit(1000)); few != many {
		t.Fatalf("Validate: %v allocs at 10 nets, %v at 1000, want the same", few, many)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Circuit)
	}{
		{"zero grid", func(c *Circuit) { c.GridW = 0 }},
		{"bad tile size", func(c *Circuit) { c.TileUm = 0 }},
		{"site slice length", func(c *Circuit) { c.BufferSites = c.BufferSites[:5] }},
		{"negative sites", func(c *Circuit) { c.BufferSites[0] = -1 }},
		{"dup net id", func(c *Circuit) { c.Nets[1].ID = 0 }},
		{"no sinks", func(c *Circuit) { c.Nets[0].Sinks = nil }},
		{"bad L", func(c *Circuit) { c.Nets[0].L = 0 }},
		{"pin off grid", func(c *Circuit) { c.Nets[0].Source.Tile = geom.Pt{X: 9, Y: 9} }},
		{"pin/tile mismatch", func(c *Circuit) { c.Nets[0].Source.Pos = geom.FPt{X: 350, Y: 250} }},
		{"nan tile size", func(c *Circuit) { c.TileUm = math.NaN() }},
		{"inf tile size", func(c *Circuit) { c.TileUm = math.Inf(1) }},
		{"negative pads", func(c *Circuit) { c.NumPads = -1 }},
		{"nan pin pos", func(c *Circuit) { c.Nets[0].Sinks[0].Pos.X = math.NaN() }},
		{"inf pin pos", func(c *Circuit) { c.Nets[1].Source.Pos.Y = math.Inf(-1) }},
		{"grid above tile bound", func(c *Circuit) {
			// 65536^2 = 1<<32 tiles; the bound must trip before the
			// buffer-site length check forces an absurd allocation.
			c.GridW, c.GridH = 1<<16, 1<<16
		}},
		{"sink fan-out above bound", func(c *Circuit) {
			c.Nets[0].Sinks = make([]Pin, MaxSinksPerNet+1)
			for i := range c.Nets[0].Sinks {
				c.Nets[0].Sinks[i] = c.Nets[0].Source
			}
		}},
	}
	for _, tc := range cases {
		c := small()
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestTileIndexAndInGrid(t *testing.T) {
	c := small()
	if c.NumTiles() != 12 {
		t.Fatalf("NumTiles = %d", c.NumTiles())
	}
	if got := c.TileIndex(geom.Pt{X: 3, Y: 2}); got != 11 {
		t.Errorf("TileIndex(3,2) = %d, want 11", got)
	}
	if got := c.TileIndex(geom.Pt{X: 1, Y: 1}); got != 5 {
		t.Errorf("TileIndex(1,1) = %d, want 5", got)
	}
	if c.InGrid(geom.Pt{X: 4, Y: 0}) || c.InGrid(geom.Pt{X: -1, Y: 0}) {
		t.Error("InGrid accepted out-of-range point")
	}
	defer func() {
		if recover() == nil {
			t.Error("TileIndex should panic out of grid")
		}
	}()
	c.TileIndex(geom.Pt{X: 4, Y: 0})
}

func TestTileOfClampsBoundary(t *testing.T) {
	c := small()
	if got := c.TileOf(geom.FPt{X: 400, Y: 300}); got != (geom.Pt{X: 3, Y: 2}) {
		t.Errorf("chip corner maps to %v, want (3,2)", got)
	}
	if got := c.TileOf(geom.FPt{X: 0, Y: 0}); got != (geom.Pt{X: 0, Y: 0}) {
		t.Errorf("origin maps to %v", got)
	}
	if got := c.TileOf(geom.FPt{X: 150, Y: 250}); got != (geom.Pt{X: 1, Y: 2}) {
		t.Errorf("interior maps to %v", got)
	}
}

func TestChipDims(t *testing.T) {
	c := small()
	if c.ChipW() != 400 || c.ChipH() != 300 {
		t.Errorf("chip dims = %v x %v", c.ChipW(), c.ChipH())
	}
}

func TestCounts(t *testing.T) {
	c := small()
	if c.TotalSinks() != 3 {
		t.Errorf("TotalSinks = %d", c.TotalSinks())
	}
	if c.TotalBufferSites() != 24 {
		t.Errorf("TotalBufferSites = %d", c.TotalBufferSites())
	}
	if c.Nets[1].NumPins() != 3 {
		t.Errorf("NumPins = %d", c.Nets[1].NumPins())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := small()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != c.Name || got.NumTiles() != c.NumTiles() || len(got.Nets) != len(c.Nets) {
		t.Error("round trip lost data")
	}
	if got.Nets[1].Sinks[1].Tile != c.Nets[1].Sinks[1].Tile {
		t.Error("round trip lost pin data")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"name":"x","grid_w":0}`)); err == nil {
		t.Error("expected error for invalid circuit")
	}
	if _, err := ReadJSON(strings.NewReader(`{garbage`)); err == nil {
		t.Error("expected decode error")
	}
}

func TestReadJSONLimitRejectsOversize(t *testing.T) {
	c := small()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	limit := int64(buf.Len() / 2)
	_, err := ReadJSONLimit(bytes.NewReader(buf.Bytes()), limit)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("undersized limit: got %v, want size-limit error", err)
	}
	// At or above the encoded size the same input is accepted.
	if _, err := ReadJSONLimit(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err != nil {
		t.Fatalf("exact limit rejected valid circuit: %v", err)
	}
}

func TestReadJSONRejectsTrailingData(t *testing.T) {
	c := small()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"more":"stuff"}`)
	_, err := ReadJSON(&buf)
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("got %v, want trailing-data error", err)
	}
}

func TestDecomposeTwoPin(t *testing.T) {
	c := small()
	d := c.DecomposeTwoPin()
	if len(d.Nets) != 3 {
		t.Fatalf("decomposed into %d nets, want 3", len(d.Nets))
	}
	for i, n := range d.Nets {
		if n.ID != i {
			t.Errorf("net %d has id %d", i, n.ID)
		}
		if len(n.Sinks) != 1 {
			t.Errorf("net %d has %d sinks", i, len(n.Sinks))
		}
	}
	if d.Nets[1].Source.Tile != c.Nets[1].Source.Tile {
		t.Error("split nets must keep the source")
	}
	if d.Nets[1].Name != "n1/0" || d.Nets[2].Name != "n1/1" {
		t.Errorf("split names = %q, %q", d.Nets[1].Name, d.Nets[2].Name)
	}
	if d.Nets[0].Name != "n0" {
		t.Errorf("single-sink net renamed to %q", d.Nets[0].Name)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("decomposed circuit invalid: %v", err)
	}
	// Mutating the copy must not touch the original.
	d.BufferSites[0] = 99
	if c.BufferSites[0] == 99 {
		t.Error("DecomposeTwoPin shares BufferSites slice")
	}
}
