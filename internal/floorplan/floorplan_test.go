package floorplan

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestSuiteMatchesTableI(t *testing.T) {
	suite := Suite()
	if len(suite) != 10 {
		t.Fatalf("suite has %d circuits, want 10", len(suite))
	}
	names := []string{"apte", "xerox", "hp", "ami33", "ami49", "playout", "ac3", "xc5", "hc7", "a9c3"}
	for i, want := range names {
		if suite[i].Name != want {
			t.Errorf("suite[%d] = %s, want %s", i, suite[i].Name, want)
		}
	}
	// Spot checks against Table I.
	apte := suite[0]
	if apte.Cells != 9 || apte.Nets != 77 || apte.Pads != 73 || apte.Sinks != 141 {
		t.Errorf("apte stats wrong: %+v", apte)
	}
	if apte.GridW != 30 || apte.GridH != 33 || apte.L != 6 || apte.Sites != 1200 {
		t.Errorf("apte params wrong: %+v", apte)
	}
	if math.Abs(apte.TileUm()-600) > 1e-9 {
		t.Errorf("apte tile side = %v um, want 600", apte.TileUm())
	}
	// The %chip column of Table I: apte 0.13, xerox 0.38, playout 1.47.
	checks := map[string]float64{"apte": 0.13, "xerox": 0.38, "playout": 1.47, "xc5": 1.11}
	for _, s := range suite {
		if want, ok := checks[s.Name]; ok {
			if got := s.SitePercentOfChip(); math.Abs(got-want) > 0.02 {
				t.Errorf("%s site area %% = %.3f, want ~%.2f", s.Name, got, want)
			}
		}
	}
}

func TestBySuiteName(t *testing.T) {
	s, err := BySuiteName("ami49")
	if err != nil || s.Cells != 49 {
		t.Errorf("BySuiteName(ami49) = %+v, %v", s, err)
	}
	if _, err := BySuiteName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestGenerateMatchesSpec(t *testing.T) {
	for _, spec := range Suite()[:4] {
		c, err := Generate(spec, Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(c.Nets) != spec.Nets {
			t.Errorf("%s: %d nets, want %d", spec.Name, len(c.Nets), spec.Nets)
		}
		if got := c.TotalSinks(); got != spec.Sinks {
			t.Errorf("%s: %d sinks, want %d", spec.Name, got, spec.Sinks)
		}
		if got := c.TotalBufferSites(); got != spec.Sites {
			t.Errorf("%s: %d sites, want %d", spec.Name, got, spec.Sites)
		}
		if len(c.Blocks) != spec.Cells {
			t.Errorf("%s: %d blocks, want %d", spec.Name, len(c.Blocks), spec.Cells)
		}
		if c.GridW != spec.GridW || c.GridH != spec.GridH {
			t.Errorf("%s: grid %dx%d", spec.Name, c.GridW, c.GridH)
		}
		for _, n := range c.Nets {
			if n.L != spec.L {
				t.Errorf("%s: net %d has L=%d", spec.Name, n.ID, n.L)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Suite()[0]
	a, err := Generate(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nets) != len(b.Nets) {
		t.Fatal("net counts differ")
	}
	for i := range a.Nets {
		if a.Nets[i].Source.Tile != b.Nets[i].Source.Tile {
			t.Fatalf("net %d source differs", i)
		}
	}
	for i := range a.BufferSites {
		if a.BufferSites[i] != b.BufferSites[i] {
			t.Fatal("buffer sites differ")
		}
	}
	// A different seed changes the instance.
	c2, err := Generate(spec, Options{Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.BufferSites {
		if a.BufferSites[i] != c2.BufferSites[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seed produced identical site distribution")
	}
}

func TestBlockedRegionAtBaseGrid(t *testing.T) {
	spec := Suite()[1] // xerox, 30x30
	c, err := Generate(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for _, b := range c.BufferSites {
		if b == 0 {
			zero++
		}
	}
	// At least the 81 blocked tiles are empty (random scatter can leave a
	// few more empty).
	if zero < 81 {
		t.Errorf("only %d zero-site tiles, want >= 81", zero)
	}
	// Verify a contiguous 9x9 all-zero square exists.
	found := false
	for by := 0; by+9 <= c.GridH && !found; by++ {
		for bx := 0; bx+9 <= c.GridW && !found; bx++ {
			ok := true
			for y := by; y < by+9 && ok; y++ {
				for x := bx; x < bx+9; x++ {
					if c.BufferSites[y*c.GridW+x] != 0 {
						ok = false
						break
					}
				}
			}
			found = ok
		}
	}
	if !found {
		t.Error("no 9x9 blocked region found")
	}
}

func TestGridOverrideKeepsChip(t *testing.T) {
	spec := Suite()[0] // apte 30x33
	for _, g := range [][2]int{{10, 11}, {20, 22}, {40, 44}, {50, 55}} {
		c, err := Generate(spec, Options{GridW: g[0], GridH: g[1]})
		if err != nil {
			t.Fatalf("grid %v: %v", g, err)
		}
		if math.Abs(c.ChipW()-spec.ChipWUm()) > 1 || math.Abs(c.ChipH()-spec.ChipHUm()) > 1 {
			t.Errorf("grid %v: chip %vx%v changed", g, c.ChipW(), c.ChipH())
		}
		if got := c.TotalBufferSites(); got != spec.Sites {
			t.Errorf("grid %v: sites %d", g, got)
		}
	}
	// Non-proportional grid must be rejected.
	if _, err := Generate(spec, Options{GridW: 10, GridH: 30}); err == nil {
		t.Error("aspect-breaking grid accepted")
	}
}

func TestSiteOverride(t *testing.T) {
	spec := Suite()[0]
	c, err := Generate(spec, Options{Sites: 280})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalBufferSites() != 280 {
		t.Errorf("sites = %d, want 280", c.TotalBufferSites())
	}
}

func TestBlocksInsideChipAndDisjoint(t *testing.T) {
	spec := Suite()[4] // ami49
	c, err := Generate(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chip := geom.Rect{Hi: geom.FPt{X: c.ChipW(), Y: c.ChipH()}}
	for i, b := range c.Blocks {
		if !b.Valid() || b.Area() <= 0 {
			t.Errorf("block %d invalid: %+v", i, b)
		}
		if b.Lo.X < chip.Lo.X-1e-9 || b.Hi.X > chip.Hi.X+1e-9 ||
			b.Lo.Y < chip.Lo.Y-1e-9 || b.Hi.Y > chip.Hi.Y+1e-9 {
			t.Errorf("block %d outside chip", i)
		}
		for j := i + 1; j < len(c.Blocks); j++ {
			if b.Intersects(c.Blocks[j]) {
				t.Errorf("blocks %d and %d overlap", i, j)
			}
		}
	}
}

func TestPerimeterPointRoundTrip(t *testing.T) {
	chip := geom.Rect{Hi: geom.FPt{X: 100, Y: 50}}
	per := 2 * (chip.W() + chip.H())
	for i := 0; i < 100; i++ {
		p := perimeterPoint(chip, per*float64(i)/100)
		onEdge := p.X == chip.Lo.X || p.X == chip.Hi.X || p.Y == chip.Lo.Y || p.Y == chip.Hi.Y
		if !onEdge {
			t.Fatalf("point %v not on boundary", p)
		}
	}
}

func TestGenerateRejectsDegenerate(t *testing.T) {
	bad := Spec{Name: "bad", Cells: 0, Nets: 1, Sinks: 1, GridW: 10, GridH: 10, TileMm: 0.5, L: 3, Sites: 10}
	if _, err := Generate(bad, Options{}); err == nil {
		t.Error("degenerate spec accepted")
	}
	bad2 := Spec{Name: "bad2", Cells: 2, Nets: 10, Sinks: 5, GridW: 10, GridH: 10, TileMm: 0.5, L: 3, Sites: 10}
	if _, err := Generate(bad2, Options{}); err == nil {
		t.Error("sinks < nets accepted")
	}
}
