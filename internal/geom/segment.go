package geom

import (
	"fmt"
	"math"
)

// Segment is a 3-D line segment from A to B with a cylinder Radius, i.e. a
// capsule. Neuron morphologies are modelled as chains of capsules: A and B are
// consecutive sample points along a branch and Radius is the branch thickness
// at that point. A capsule with A == B degenerates to a sphere, the shape used
// for somas.
type Segment struct {
	A, B   Vec
	Radius float64
}

// Seg constructs a Segment.
func Seg(a, b Vec, r float64) Segment { return Segment{A: a, B: b, Radius: r} }

// Sphere constructs the degenerate capsule used for somas.
func Sphere(c Vec, r float64) Segment { return Segment{A: c, B: c, Radius: r} }

// Bounds returns the tight axis-aligned bounding box of the capsule.
func (s Segment) Bounds() AABB {
	return Box(s.A, s.B).Expand(s.Radius)
}

// Center returns the midpoint of the capsule axis.
func (s Segment) Center() Vec { return s.A.Lerp(s.B, 0.5) }

// Length returns the length of the capsule axis (zero for spheres).
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// PointAt returns the point at parameter t in [0,1] along the axis.
func (s Segment) PointAt(t float64) Vec { return s.A.Lerp(s.B, t) }

// ClosestPointParam returns the parameter t in [0,1] of the point on the axis
// closest to p.
func (s Segment) ClosestPointParam(p Vec) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Len2()
	if l2 == 0 {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / l2
	return math.Max(0, math.Min(1, t))
}

// DistPoint returns the distance from p to the capsule surface; negative
// values mean p is inside the capsule.
func (s Segment) DistPoint(p Vec) float64 {
	t := s.ClosestPointParam(p)
	return s.PointAt(t).Dist(p) - s.Radius
}

// AxisDist2 returns the squared minimum distance between the axes (center
// lines) of s and o, the core primitive of the distance join: the squared
// distance between ClosestPoints' two points.
func (s Segment) AxisDist2(o Segment) float64 {
	p, q := s.ClosestPoints(o)
	return p.Dist2(q)
}

// ClosestPoints returns the points p on the axis of s and q on the axis of o
// that are closest to each other. The implementation is the standard clamped
// closest-point computation between two segments (Ericson, "Real-Time
// Collision Detection", §5.1.9), written out so it allocates nothing.
func (s Segment) ClosestPoints(o Segment) (p, q Vec) {
	d1 := s.B.Sub(s.A) // direction of s
	d2 := o.B.Sub(o.A) // direction of o
	r := s.A.Sub(o.A)
	a := d1.Len2()
	e := d2.Len2()
	f := d2.Dot(r)

	var t1, t2 float64
	switch {
	case a == 0 && e == 0:
		// Both degenerate to points.
		return s.A, o.A
	case a == 0:
		// s is a point: clamp projection onto o.
		t2 = clamp01(f / e)
	case e == 0:
		// o is a point: clamp projection onto s.
		t1 = clamp01(-d1.Dot(r) / a)
	default:
		c := d1.Dot(r)
		b := d1.Dot(d2)
		den := a*e - b*b
		if den != 0 {
			t1 = clamp01((b*f - c*e) / den)
		}
		t2 = (b*t1 + f) / e
		// If t2 left [0,1], clamp it and recompute t1 for the clamped value.
		if t2 < 0 {
			t2 = 0
			t1 = clamp01(-c / a)
		} else if t2 > 1 {
			t2 = 1
			t1 = clamp01((b - c) / a)
		}
	}
	return s.A.Add(d1.Scale(t1)), o.A.Add(d2.Scale(t2))
}

// Dist returns the minimum distance between the capsule surfaces of s and o;
// negative values mean the capsules interpenetrate.
func (s Segment) Dist(o Segment) float64 {
	return math.Sqrt(s.AxisDist2(o)) - s.Radius - o.Radius
}

// WithinDist reports whether the capsule surfaces of s and o come within eps
// of each other. This is the join predicate used for synapse placement: two
// branches form a synapse candidate when their membranes are within the
// neurotransmitter leap distance.
func (s Segment) WithinDist(o Segment, eps float64) bool {
	sum := s.Radius + o.Radius + eps
	return s.AxisDist2(o) <= sum*sum
}

// IntersectsBox reports whether the capsule comes within its radius of the
// box, i.e. whether the capsule volume intersects the box. It is exact, not an
// MBR approximation: refinement after an index filter step uses it.
func (s Segment) IntersectsBox(b AABB) bool {
	// Quick reject on the capsule's bounding box.
	if !s.Bounds().Intersects(b) {
		return false
	}
	// Exact test: min distance from the axis segment to the box <= radius.
	return s.dist2SegBox(b) <= s.Radius*s.Radius
}

// dist2SegBox returns the squared distance between the axis segment and the
// box. It minimizes the point-to-box distance along the segment with a
// ternary search, safe because the distance-to-convex-set function is convex
// along a line.
func (s Segment) dist2SegBox(b AABB) float64 {
	if b.Contains(s.A) || b.Contains(s.B) {
		return 0
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 48; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if b.Dist2Point(s.PointAt(m1)) < b.Dist2Point(s.PointAt(m2)) {
			hi = m2
		} else {
			lo = m1
		}
	}
	return b.Dist2Point(s.PointAt((lo + hi) / 2))
}

// ClipParamRange returns the sub-range [t0,t1] of axis parameters whose points
// lie inside the box, and ok=false when the axis misses the box entirely. It
// implements the slab method and is what SCOUT uses to find where a branch
// exits a query region.
func (s Segment) ClipParamRange(b AABB) (t0, t1 float64, ok bool) {
	d := s.B.Sub(s.A)
	t0, t1 = 0, 1
	for i := 0; i < 3; i++ {
		o, dd := s.A.Axis(i), d.Axis(i)
		lo, hi := b.Min.Axis(i), b.Max.Axis(i)
		if dd == 0 {
			if o < lo || o > hi {
				return 0, 0, false
			}
			continue
		}
		ta := (lo - o) / dd
		tb := (hi - o) / dd
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > t0 {
			t0 = ta
		}
		if tb < t1 {
			t1 = tb
		}
		if t0 > t1 {
			return 0, 0, false
		}
	}
	return t0, t1, true
}

func clamp01(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// String formats the capsule for diagnostics.
func (s Segment) String() string {
	return fmt.Sprintf("seg{%v->%v r=%.4g}", s.A, s.B, s.Radius)
}
