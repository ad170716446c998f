// Package geom provides the small geometric vocabulary shared by the tile
// graph, floorplan, and routing packages: integer grid points, floating-point
// chip-coordinate points, rectangles, and Manhattan metrics.
//
// Grid coordinates (Pt) index tiles; chip coordinates (FPt) are in
// micrometers unless a caller documents otherwise.
package geom

import "fmt"

// Pt is an integer grid point (tile coordinate).
type Pt struct {
	X, Y int
}

// String implements fmt.Stringer.
func (p Pt) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Add returns p translated by q.
func (p Pt) Add(q Pt) Pt { return Pt{p.X + q.X, p.Y + q.Y} }

// Manhattan returns the L1 distance between two grid points in tile units.
func (p Pt) Manhattan(q Pt) int {
	return Abs(p.X-q.X) + Abs(p.Y-q.Y)
}

// FPt is a point in chip coordinates (micrometers).
type FPt struct {
	X, Y float64
}

// Manhattan returns the L1 distance between two chip-coordinate points.
func (p FPt) Manhattan(q FPt) float64 {
	return AbsF(p.X-q.X) + AbsF(p.Y-q.Y)
}

// Rect is an axis-aligned rectangle in chip coordinates. Lo is the lower-left
// corner and Hi the upper-right corner; Lo.X <= Hi.X and Lo.Y <= Hi.Y for a
// well-formed rectangle.
type Rect struct {
	Lo, Hi FPt
}

// W returns the rectangle width.
func (r Rect) W() float64 { return r.Hi.X - r.Lo.X }

// H returns the rectangle height.
func (r Rect) H() float64 { return r.Hi.Y - r.Lo.Y }

// Area returns the rectangle area.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the rectangle center point.
func (r Rect) Center() FPt { return FPt{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2} }

// Contains reports whether p lies inside r (inclusive of the low edge,
// exclusive of the high edge, so adjacent rectangles do not share points).
func (r Rect) Contains(p FPt) bool {
	return p.X >= r.Lo.X && p.X < r.Hi.X && p.Y >= r.Lo.Y && p.Y < r.Hi.Y
}

// Intersects reports whether two rectangles overlap with positive area.
func (r Rect) Intersects(s Rect) bool {
	return r.Lo.X < s.Hi.X && s.Lo.X < r.Hi.X && r.Lo.Y < s.Hi.Y && s.Lo.Y < r.Hi.Y
}

// Valid reports whether the rectangle is well formed (non-negative extent).
func (r Rect) Valid() bool { return r.Hi.X >= r.Lo.X && r.Hi.Y >= r.Lo.Y }

// Abs returns the absolute value of an int.
func Abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// AbsF returns the absolute value of a float64 without importing math.
func AbsF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Min returns the smaller of two ints.
func Min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of two ints.
func Max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Bounds returns the smallest box lo..hi (inclusive) holding the box lo..hi
// and every point of pts.
func Bounds(lo, hi Pt, pts []Pt) (Pt, Pt) {
	for _, p := range pts {
		lo, hi = Pt{min(lo.X, p.X), min(lo.Y, p.Y)}, Pt{max(hi.X, p.X), max(hi.Y, p.Y)}
	}
	return lo, hi
}
