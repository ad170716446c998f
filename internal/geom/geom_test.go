package geom

import (
	"testing"
	"testing/quick"
)

func TestPtManhattan(t *testing.T) {
	cases := []struct {
		a, b Pt
		want int
	}{
		{Pt{0, 0}, Pt{0, 0}, 0},
		{Pt{0, 0}, Pt{3, 4}, 7},
		{Pt{-2, 5}, Pt{1, 1}, 7},
		{Pt{10, 10}, Pt{10, 11}, 1},
	}
	for _, c := range cases {
		if got := c.a.Manhattan(c.b); got != c.want {
			t.Errorf("Manhattan(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Manhattan(c.a); got != c.want {
			t.Errorf("Manhattan not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestPtAdd(t *testing.T) {
	if got := (Pt{1, 2}).Add(Pt{3, -5}); got != (Pt{4, -3}) {
		t.Errorf("Add = %v, want (4,-3)", got)
	}
}

func TestPtString(t *testing.T) {
	if got := (Pt{3, -1}).String(); got != "(3,-1)" {
		t.Errorf("String = %q", got)
	}
}

func TestManhattanTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt{int(ax), int(ay)}
		b := Pt{int(bx), int(by)}
		c := Pt{int(cx), int(cy)}
		return a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManhattanNonNegativeAndIdentity(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		a := Pt{int(ax), int(ay)}
		b := Pt{int(bx), int(by)}
		d := a.Manhattan(b)
		if d < 0 {
			return false
		}
		return (d == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{FPt{0, 0}, FPt{4, 2}}
	if r.W() != 4 || r.H() != 2 || r.Area() != 8 {
		t.Errorf("W/H/Area = %v/%v/%v", r.W(), r.H(), r.Area())
	}
	if !r.Valid() {
		t.Error("rect should be valid")
	}
	if (Rect{FPt{1, 1}, FPt{0, 0}}).Valid() {
		t.Error("inverted rect should be invalid")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{FPt{0, 0}, FPt{4, 2}}
	if !r.Contains(FPt{0, 0}) {
		t.Error("low corner should be contained")
	}
	if r.Contains(FPt{4, 2}) {
		t.Error("high corner should be excluded")
	}
	if !r.Contains(FPt{3.9, 1.9}) {
		t.Error("interior point should be contained")
	}
	if r.Contains(FPt{-0.1, 1}) {
		t.Error("outside point should not be contained")
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{FPt{0, 0}, FPt{2, 2}}
	b := Rect{FPt{1, 1}, FPt{3, 3}}
	c := Rect{FPt{2, 0}, FPt{4, 2}} // abutting a, zero-area overlap
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("a and b should intersect")
	}
	if a.Intersects(c) || c.Intersects(a) {
		t.Error("abutting rects should not intersect")
	}
}

func TestFPtManhattan(t *testing.T) {
	d := (FPt{0, 0}).Manhattan(FPt{1.5, -2.5})
	if d != 4.0 {
		t.Errorf("FPt Manhattan = %v, want 4", d)
	}
}

func TestScalarHelpers(t *testing.T) {
	if Abs(-3) != 3 || Abs(3) != 3 || Abs(0) != 0 {
		t.Error("Abs broken")
	}
	if AbsF(-1.5) != 1.5 || AbsF(2.0) != 2.0 {
		t.Error("AbsF broken")
	}
	if Min(2, 3) != 2 || Min(3, 2) != 2 {
		t.Error("Min broken")
	}
	if Max(2, 3) != 3 || Max(3, 2) != 3 {
		t.Error("Max broken")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp broken")
	}
}
