// Package geom provides the three-dimensional geometric primitives that every
// other package in this repository builds on: vectors, axis-aligned bounding
// boxes, line segments and capsules (segments with a radius, the shape used to
// model neuron branches), together with the exact distance computations the
// spatial join needs.
//
// All types are plain value types with no hidden state so they can be embedded
// in large slices without pointer chasing; this matters because circuits
// routinely contain tens of millions of segments.
package geom

import (
	"fmt"
	"math"
)

// Vec is a point or direction in 3-D space.
type Vec struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec.
func V(x, y, z float64) Vec { return Vec{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product of v and w.
func (v Vec) Cross(w Vec) Vec {
	return Vec{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Len2 returns the squared Euclidean length of v.
func (v Vec) Len2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 { return v.Sub(w).Len() }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec) Dist2(w Vec) float64 { return v.Sub(w).Len2() }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged so callers never divide by zero.
func (v Vec) Normalize() Vec {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec) Lerp(w Vec, t float64) Vec {
	return Vec{
		v.X + (w.X-v.X)*t,
		v.Y + (w.Y-v.Y)*t,
		v.Z + (w.Z-v.Z)*t,
	}
}

// Min returns the component-wise minimum of v and w. The builtin min has
// math.Min's rules for NaN and signed zeros, inlined.
func (v Vec) Min(w Vec) Vec {
	return Vec{min(v.X, w.X), min(v.Y, w.Y), min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w, by math.Max's rules.
func (v Vec) Max(w Vec) Vec {
	return Vec{max(v.X, w.X), max(v.Y, w.Y), max(v.Z, w.Z)}
}

// Axis returns the i-th component (0=X, 1=Y, 2=Z). It panics on any other i,
// matching slice indexing semantics.
func (v Vec) Axis(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	case 2:
		return v.Z
	}
	panic(axisIndexError(i))
}

// WithAxis returns a copy of v with the i-th component replaced by x.
func (v Vec) WithAxis(i int, x float64) Vec {
	switch i {
	case 0:
		v.X = x
	case 1:
		v.Y = x
	case 2:
		v.Z = x
	default:
		panic(axisIndexError(i))
	}
	return v
}

// axisIndexError is the value Axis and WithAxis panic with. The message is
// formatted by its Error method, out of line, so that the formatting does not
// count against their inlining budget.
type axisIndexError int

func (i axisIndexError) Error() string {
	return fmt.Sprintf("geom: axis index %d out of range", int(i))
}

// IsFinite reports whether all components are finite numbers.
func (v Vec) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String formats the vector for diagnostics.
func (v Vec) String() string { return fmt.Sprintf("(%.4g, %.4g, %.4g)", v.X, v.Y, v.Z) }
