package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The distance kernels against the loop forms they replaced, which live here
// only, as the oracle: Dist2Point and Dist2Box must agree with them bit for
// bit on every input — infinities, NaNs, signed zeros, empty and inverted
// boxes included — because kNN ranks and ties by the exact value.

// dist2PointRef is the per-axis loop Dist2Point was written as.
func dist2PointRef(b AABB, p Vec) float64 {
	var d2 float64
	for i := 0; i < 3; i++ {
		lo, hi, x := b.Min.Axis(i), b.Max.Axis(i), p.Axis(i)
		if x < lo {
			d := lo - x
			d2 += d * d
		} else if x > hi {
			d := x - hi
			d2 += d * d
		}
	}
	return d2
}

// dist2BoxRef is the per-axis loop Dist2Box was written as.
func dist2BoxRef(b, o AABB) float64 {
	var d2 float64
	for i := 0; i < 3; i++ {
		lo := b.Min.Axis(i) - o.Max.Axis(i)
		hi := o.Min.Axis(i) - b.Max.Axis(i)
		if lo > 0 {
			d2 += lo * lo
		} else if hi > 0 {
			d2 += hi * hi
		}
	}
	return d2
}

// specialCoords are the values an axis is swept over: both infinities, NaN,
// both zeros, the extremes of the finite range and a subnormal.
var specialCoords = []float64{
	math.Inf(-1), -math.MaxFloat64, -2.5, -1, math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, 1, 2.5, math.MaxFloat64, math.Inf(1), math.NaN(),
}

func checkDist2Point(t *testing.T, b AABB, p Vec) {
	t.Helper()
	if got, want := b.Dist2Point(p), dist2PointRef(b, p); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Dist2Point(%v, %v) = %v (%#x), loop form %v (%#x)",
			b, p, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func checkDist2Box(t *testing.T, b, o AABB) {
	t.Helper()
	if got, want := b.Dist2Box(o), dist2BoxRef(b, o); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Dist2Box(%v, %v) = %v (%#x), loop form %v (%#x)",
			b, o, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// pointBackdrops are the other two axes' (lo, hi, x) while one axis is swept:
// inside, below, above, and an infinite point inside an unbounded interval.
var pointBackdrops = [][3]float64{{0, 1, 0.5}, {1, 2, 0}, {-2, -1, 0}, {math.Inf(-1), math.Inf(1), math.Inf(1)}}

// fromAxes assembles a box and a point from per-axis (lo, hi, x) triples.
func fromAxes(ax [3][3]float64) (AABB, Vec) {
	return AABB{Min: V(ax[0][0], ax[1][0], ax[2][0]), Max: V(ax[0][1], ax[1][1], ax[2][1])},
		V(ax[0][2], ax[1][2], ax[2][2])
}

func TestDist2PointMatchesReference(t *testing.T) {
	inf := math.Inf(1)
	named := []struct {
		b AABB
		p Vec
	}{
		{Box(V(1, 2, 3), V(1, 2, 3)), V(1, 2, 3)},  // point box, at the point
		{Box(V(1, 2, 3), V(1, 2, 3)), V(4, -2, 3)}, // point box, away from it
		{EmptyAABB(), V(0, 0, 0)},
		{EmptyAABB(), V(inf, -inf, 0)},
		{AABB{Min: V(-inf, -inf, -inf), Max: V(inf, inf, inf)}, V(inf, -inf, inf)}, // the max(lo-x, x-hi, 0) form's NaN
		{AABB{Min: V(-inf, -inf, -inf), Max: V(inf, inf, inf)}, V(0, 1, 2)},
		{Box(V(0, 0, 0), V(1, 1, 1)), V(inf, 0.5, -inf)},
		{AABB{Min: V(5, 5, 5), Max: V(3, 3, 3)}, V(4, 4, 4)}, // inverted: lo is tested first
	}
	for _, c := range named {
		checkDist2Point(t, c.b, c.p)
	}

	// Every (lo, hi, x) over the special values on each axis in turn, the other
	// two axes held at each backdrop.
	for a := 0; a < 3; a++ {
		for _, lo := range specialCoords {
			for _, hi := range specialCoords {
				for _, x := range specialCoords {
					for _, u := range pointBackdrops {
						for _, w := range pointBackdrops {
							var ax [3][3]float64
							ax[a], ax[(a+1)%3], ax[(a+2)%3] = [3]float64{lo, hi, x}, u, w
							b, p := fromAxes(ax)
							checkDist2Point(t, b, p)
						}
					}
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20000; i++ {
		b := randBox(rng, 100)
		if i%4 == 0 {
			b.Min, b.Max = b.Max, b.Min // inverted boxes too
		}
		checkDist2Point(t, b, randVec(rng, 150))
	}
}

func TestDist2BoxMatchesReference(t *testing.T) {
	inf := math.Inf(1)
	unbounded := AABB{Min: V(-inf, -inf, -inf), Max: V(inf, inf, inf)}
	named := [][2]AABB{
		{EmptyAABB(), EmptyAABB()},
		{EmptyAABB(), Box(V(0, 0, 0), V(1, 1, 1))},
		{unbounded, unbounded},
		{unbounded, EmptyAABB()},
		{Box(V(1, 2, 3), V(1, 2, 3)), Box(V(4, 4, 4), V(4, 4, 4))},
	}
	for _, c := range named {
		checkDist2Box(t, c[0], c[1])
		checkDist2Box(t, c[1], c[0])
	}
	for a := 0; a < 3; a++ {
		for _, bl := range specialCoords {
			for _, bh := range specialCoords {
				for _, ol := range specialCoords {
					for _, oh := range specialCoords {
						b := AABB{Min: V(0, 0, 0).WithAxis(a, bl), Max: V(1, 1, 1).WithAxis(a, bh)}
						o := AABB{Min: V(2, -3, 0.5).WithAxis(a, ol), Max: V(3, -2, 0.5).WithAxis(a, oh)}
						checkDist2Box(t, b, o)
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20000; i++ {
		b, o := randBox(rng, 100), randBox(rng, 100)
		if i%4 == 0 {
			o.Min, o.Max = o.Max, o.Min
		}
		checkDist2Box(t, b, o)
	}
}

func FuzzDist2Point(f *testing.F) {
	inf := math.Inf(1)
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 2.0, -3.0)
	f.Add(1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0)                         // point box
	f.Add(inf, inf, inf, -inf, -inf, -inf, 0.0, inf, -inf)                     // EmptyAABB
	f.Add(-inf, -inf, -inf, inf, inf, inf, inf, -inf, inf)                     // unbounded box, infinite center
	f.Add(5.0, 0.0, 0.0, 3.0, 1.0, 1.0, 4.0, math.NaN(), math.Copysign(0, -1)) // inverted axis, NaN, −0
	f.Fuzz(func(t *testing.T, minX, minY, minZ, maxX, maxY, maxZ, x, y, z float64) {
		checkDist2Point(t, AABB{Min: V(minX, minY, minZ), Max: V(maxX, maxY, maxZ)}, V(x, y, z))
	})
}

func FuzzDist2Box(f *testing.F) {
	inf := math.Inf(1)
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, -3.0, 0.5, 3.0, -2.0, 0.5)
	f.Add(inf, inf, inf, -inf, -inf, -inf, -inf, -inf, -inf, inf, inf, inf)
	f.Fuzz(func(t *testing.T, bx0, by0, bz0, bx1, by1, bz1, ox0, oy0, oz0, ox1, oy1, oz1 float64) {
		checkDist2Box(t, AABB{Min: V(bx0, by0, bz0), Max: V(bx1, by1, bz1)},
			AABB{Min: V(ox0, oy0, oz0), Max: V(ox1, oy1, oz1)})
	})
}

// BenchmarkDist2Point times the kernel against the loop form it replaced, each
// called through a function value over the same 4,096 random boxes and points.
func BenchmarkDist2Point(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	boxes, points := make([]AABB, 4096), make([]Vec, 4096)
	for i := range boxes {
		boxes[i], points[i] = randBox(rng, 100), randVec(rng, 100)
	}
	for _, c := range []struct {
		name string
		fn   func(AABB, Vec) float64
	}{{"kernel", AABB.Dist2Point}, {"reference", dist2PointRef}} {
		b.Run(c.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				j := i & 4095
				sink += c.fn(boxes[j], points[j])
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
