package geom

import (
	"fmt"
	"math"
)

// AABB is an axis-aligned bounding box, the unit of spatial filtering used by
// every index and join in this repository. A box is valid when Min <= Max on
// every axis; EmptyAABB returns the canonical inverted box used as the
// identity element for Union.
type AABB struct {
	Min, Max Vec
}

// EmptyAABB returns the identity element for Union: a box inverted on every
// axis that contains nothing and unions with anything to produce the other
// operand.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec{inf, inf, inf}, Max: Vec{-inf, -inf, -inf}}
}

// Box constructs an AABB from two arbitrary corners, swapping components as
// needed so the result is valid.
func Box(a, b Vec) AABB { return AABB{Min: a.Min(b), Max: a.Max(b)} }

// BoxAround returns a cube of half-extent r centered at c. It is the shape of
// the range queries the neuroscientists issue around a point of interest.
func BoxAround(c Vec, r float64) AABB {
	e := Vec{r, r, r}
	return AABB{Min: c.Sub(e), Max: c.Add(e)}
}

// IsEmpty reports whether the box contains no points (inverted on any axis).
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Center returns the geometric center of the box.
func (b AABB) Center() Vec { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the extent of the box on each axis.
func (b AABB) Size() Vec { return b.Max.Sub(b.Min) }

// Volume returns the volume of the box; empty boxes report 0.
func (b AABB) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	s := b.Size()
	return s.X * s.Y * s.Z
}

// SurfaceArea returns the total surface area, the quantity R*-style heuristics
// minimize; empty boxes report 0.
func (b AABB) SurfaceArea() float64 {
	if b.IsEmpty() {
		return 0
	}
	s := b.Size()
	return 2 * (s.X*s.Y + s.Y*s.Z + s.Z*s.X)
}

// Margin returns the sum of the three edge lengths (the R* "margin" metric).
func (b AABB) Margin() float64 {
	if b.IsEmpty() {
		return 0
	}
	s := b.Size()
	return s.X + s.Y + s.Z
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return AABB{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// Intersect returns the overlap of b and o; the result may be empty.
func (b AABB) Intersect(o AABB) AABB {
	return AABB{Min: b.Min.Max(o.Min), Max: b.Max.Min(o.Max)}
}

// Intersects reports whether b and o share at least one point. Boxes that
// merely touch on a face, edge or corner intersect: spatial indexes must not
// drop boundary results.
func (b AABB) Intersects(o AABB) bool {
	return b.Min.X <= o.Max.X && o.Min.X <= b.Max.X &&
		b.Min.Y <= o.Max.Y && o.Min.Y <= b.Max.Y &&
		b.Min.Z <= o.Max.Z && o.Min.Z <= b.Max.Z
}

// Contains reports whether the point p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec) bool {
	return b.Min.X <= p.X && p.X <= b.Max.X &&
		b.Min.Y <= p.Y && p.Y <= b.Max.Y &&
		b.Min.Z <= p.Z && p.Z <= b.Max.Z
}

// ContainsBox reports whether o lies entirely inside b (boundaries included).
// Every box contains the empty box.
func (b AABB) ContainsBox(o AABB) bool {
	if o.IsEmpty() {
		return true
	}
	return b.Min.X <= o.Min.X && o.Max.X <= b.Max.X &&
		b.Min.Y <= o.Min.Y && o.Max.Y <= b.Max.Y &&
		b.Min.Z <= o.Min.Z && o.Max.Z <= b.Max.Z
}

// Expand grows the box by r on every side. A negative r shrinks it and may
// produce an empty box.
func (b AABB) Expand(r float64) AABB {
	e := Vec{r, r, r}
	return AABB{Min: b.Min.Sub(e), Max: b.Max.Add(e)}
}

// ExtendPoint returns the smallest box containing both b and the point p.
func (b AABB) ExtendPoint(p Vec) AABB {
	if b.IsEmpty() {
		return AABB{Min: p, Max: p}
	}
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Translate returns the box shifted by d.
func (b AABB) Translate(d Vec) AABB {
	return AABB{Min: b.Min.Add(d), Max: b.Max.Add(d)}
}

// Dist2Point returns the squared distance from p to the closest point of b
// (zero when p is inside). This is the pruning bound KNN search uses, and the
// distance every kNN candidate is ranked by: it is written per named field so
// that it inlines into the search's inner loop. Its result is bit-identical to
// summing the per-axis terms in X, Y, Z order, an axis the point is within
// adding nothing (an unbounded box therefore reports 0 for an infinite point
// inside it, never NaN).
func (b AABB) Dist2Point(p Vec) float64 {
	dx := AxisGap(b.Min.X, b.Max.X, p.X)
	dy := AxisGap(b.Min.Y, b.Max.Y, p.Y)
	dz := AxisGap(b.Min.Z, b.Max.Z, p.Z)
	return dx*dx + dy*dy + dz*dz
}

// AxisGap is the distance from x to the interval [lo, hi] on one axis (zero
// inside it; lo is tested first, as Dist2Point does). It inlines, so a
// struct-of-arrays store can rank its slots by Dist2Point's exact arithmetic
// without materializing an AABB.
func AxisGap(lo, hi, x float64) float64 {
	if x < lo {
		return lo - x
	}
	if x > hi {
		return x - hi
	}
	return 0
}

// Dist2Box returns the squared distance between the closest points of b and o
// (zero when they intersect). The distance join uses it as its filter bound.
// Like Dist2Point it is written per named field and bit-identical to the
// per-axis sum.
func (b AABB) Dist2Box(o AABB) float64 {
	dx := boxGap(b.Min.X-o.Max.X, o.Min.X-b.Max.X)
	dy := boxGap(b.Min.Y-o.Max.Y, o.Min.Y-b.Max.Y)
	dz := boxGap(b.Min.Z-o.Max.Z, o.Min.Z-b.Max.Z)
	return dx*dx + dy*dy + dz*dz
}

// boxGap is the gap between two intervals on one axis given the two
// differences that can be positive (zero when the intervals overlap).
func boxGap(lo, hi float64) float64 {
	if lo > 0 {
		return lo
	}
	if hi > 0 {
		return hi
	}
	return 0
}

// Clamp returns p moved to the closest point inside b.
func (b AABB) Clamp(p Vec) Vec {
	return p.Max(b.Min).Min(b.Max)
}

// Overlap returns the volume of the intersection of b and o.
func (b AABB) Overlap(o AABB) float64 { return b.Intersect(o).Volume() }

// Enlargement returns how much b's volume grows when extended to include o.
// R-tree insertion descends toward the child with minimal enlargement.
func (b AABB) Enlargement(o AABB) float64 { return b.Union(o).Volume() - b.Volume() }

// Octant splits b at its center and returns the i-th (0..7) child cube, with
// bit 0 selecting the upper X half, bit 1 upper Y, bit 2 upper Z.
func (b AABB) Octant(i int) AABB {
	c := b.Center()
	r := b
	if i&1 != 0 {
		r.Min.X = c.X
	} else {
		r.Max.X = c.X
	}
	if i&2 != 0 {
		r.Min.Y = c.Y
	} else {
		r.Max.Y = c.Y
	}
	if i&4 != 0 {
		r.Min.Z = c.Z
	} else {
		r.Max.Z = c.Z
	}
	return r
}

// String formats the box for diagnostics.
func (b AABB) String() string { return fmt.Sprintf("[%v .. %v]", b.Min, b.Max) }
