package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randSeg(rng *rand.Rand, scale float64) Segment {
	return Seg(randVec(rng, scale), randVec(rng, scale), rng.Float64()*scale/10)
}

// bruteAxisDist2 samples both segments densely; it upper-bounds the true
// minimum distance and converges to it as the sample count grows.
func bruteAxisDist2(s, o Segment, n int) float64 {
	best := math.Inf(1)
	for i := 0; i <= n; i++ {
		p := s.PointAt(float64(i) / float64(n))
		for j := 0; j <= n; j++ {
			q := o.PointAt(float64(j) / float64(n))
			if d := p.Dist2(q); d < best {
				best = d
			}
		}
	}
	return best
}

func TestSegmentBounds(t *testing.T) {
	s := Seg(V(0, 0, 0), V(2, 0, 0), 0.5)
	b := s.Bounds()
	if b.Min != V(-0.5, -0.5, -0.5) || b.Max != V(2.5, 0.5, 0.5) {
		t.Errorf("Bounds = %v", b)
	}
	sp := Sphere(V(1, 1, 1), 2)
	if got := sp.Bounds(); got != Box(V(-1, -1, -1), V(3, 3, 3)) {
		t.Errorf("sphere Bounds = %v", got)
	}
	if sp.Length() != 0 {
		t.Errorf("sphere Length = %v", sp.Length())
	}
}

func TestDistPoint(t *testing.T) {
	s := Seg(V(0, 0, 0), V(10, 0, 0), 1)
	if d := s.DistPoint(V(5, 3, 0)); !almostEq(d, 2, 1e-12) {
		t.Errorf("side dist = %v", d)
	}
	if d := s.DistPoint(V(-4, 0, 0)); !almostEq(d, 3, 1e-12) {
		t.Errorf("cap dist = %v", d)
	}
	if d := s.DistPoint(V(5, 0.5, 0)); !almostEq(d, -0.5, 1e-12) {
		t.Errorf("inside dist = %v", d)
	}
}

func TestAxisDist2KnownCases(t *testing.T) {
	cases := []struct {
		s, o Segment
		want float64
	}{
		// Parallel, offset by 2 in Y.
		{Seg(V(0, 0, 0), V(4, 0, 0), 0), Seg(V(0, 2, 0), V(4, 2, 0), 0), 4},
		// Crossing (skew) at distance 1 in Z.
		{Seg(V(-1, 0, 0), V(1, 0, 0), 0), Seg(V(0, -1, 1), V(0, 1, 1), 0), 1},
		// Collinear, disjoint with gap 3.
		{Seg(V(0, 0, 0), V(1, 0, 0), 0), Seg(V(4, 0, 0), V(6, 0, 0), 0), 9},
		// Identical segments.
		{Seg(V(0, 0, 0), V(1, 1, 1), 0), Seg(V(0, 0, 0), V(1, 1, 1), 0), 0},
		// Point vs point.
		{Sphere(V(0, 0, 0), 0), Sphere(V(0, 3, 4), 0), 25},
		// Point vs segment interior.
		{Sphere(V(5, 2, 0), 0), Seg(V(0, 0, 0), V(10, 0, 0), 0), 4},
	}
	for i, c := range cases {
		if got := c.s.AxisDist2(c.o); !almostEq(got, c.want, 1e-9) {
			t.Errorf("case %d: AxisDist2 = %v, want %v", i, got, c.want)
		}
		if got := c.o.AxisDist2(c.s); !almostEq(got, c.want, 1e-9) {
			t.Errorf("case %d (swapped): AxisDist2 = %v, want %v", i, got, c.want)
		}
	}
}

func TestDistAndWithinDist(t *testing.T) {
	a := Seg(V(0, 0, 0), V(10, 0, 0), 1)
	b := Seg(V(0, 4, 0), V(10, 4, 0), 1)
	if d := a.Dist(b); !almostEq(d, 2, 1e-12) {
		t.Errorf("Dist = %v", d)
	}
	if !a.WithinDist(b, 2) {
		t.Error("WithinDist(2) = false")
	}
	if !a.WithinDist(b, 2.0001) {
		t.Error("WithinDist(2.0001) = false")
	}
	if a.WithinDist(b, 1.999) {
		t.Error("WithinDist(1.999) = true")
	}
}

// Property: AxisDist2 lower-bounds dense sampling and is close to it.
func TestQuickAxisDist2VsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		s, o := randSeg(rng, 10), randSeg(rng, 10)
		exact := s.AxisDist2(o)
		approx := bruteAxisDist2(s, o, 60)
		if exact > approx+1e-9 {
			t.Fatalf("AxisDist2=%v exceeds sampled upper bound %v for %v %v", exact, approx, s, o)
		}
		// Sampling with 60 subdivisions is within (L/60)^2-ish of the truth.
		slack := math.Pow((s.Length()+o.Length())/30, 2) + 1e-9
		if approx-exact > slack {
			t.Fatalf("AxisDist2=%v too far below sampled %v (slack %v) for %v %v", exact, approx, slack, s, o)
		}
	}
}

// Property: AxisDist2 is symmetric and translation invariant.
func TestQuickAxisDist2Invariances(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		s, o := randSeg(rng, 10), randSeg(rng, 10)
		d := randVec(rng, 100)
		if !almostEq(s.AxisDist2(o), o.AxisDist2(s), 1e-9) {
			t.Fatalf("asymmetric AxisDist2: %v %v", s, o)
		}
		st := Seg(s.A.Add(d), s.B.Add(d), s.Radius)
		ot := Seg(o.A.Add(d), o.B.Add(d), o.Radius)
		if !almostEq(s.AxisDist2(o), st.AxisDist2(ot), 1e-6) {
			t.Fatalf("not translation invariant: %v %v", s, o)
		}
	}
}

func TestIntersectsBox(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 1, 1))
	cases := []struct {
		s    Segment
		want bool
	}{
		{Seg(V(-1, 0.5, 0.5), V(2, 0.5, 0.5), 0.01), true}, // passes through
		{Seg(V(0.2, 0.2, 0.2), V(0.8, 0.8, 0.8), 0.01), true},
		{Seg(V(2, 2, 2), V(3, 3, 3), 0.1), false},
		{Seg(V(1.5, 0.5, 0.5), V(2, 0.5, 0.5), 0.6), true}, // radius reaches the face
		{Seg(V(1.5, 0.5, 0.5), V(2, 0.5, 0.5), 0.4), false},
		// Diagonal near-miss: line x+y=2.2 passes 0.2/sqrt(2)≈0.141 from the
		// corner (1,1,0.5); a 0.1 radius misses, a 0.15 radius touches.
		{Seg(V(2.2, 0, 0.5), V(0, 2.2, 0.5), 0.1), false},
		{Seg(V(2.2, 0, 0.5), V(0, 2.2, 0.5), 0.15), true},
	}
	for i, c := range cases {
		if got := c.s.IntersectsBox(b); got != c.want {
			t.Errorf("case %d: IntersectsBox(%v) = %v, want %v", i, c.s, got, c.want)
		}
	}
}

// Property: IntersectsBox agrees with dense sampling of the capsule axis.
func TestQuickIntersectsBoxVsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		b := randBox(rng, 5)
		s := randSeg(rng, 8)
		// Sampled verdict: any sampled axis point within radius of the box.
		sampled := false
		for j := 0; j <= 200; j++ {
			p := s.PointAt(float64(j) / 200)
			if b.Dist2Point(p) <= s.Radius*s.Radius {
				sampled = true
				break
			}
		}
		got := s.IntersectsBox(b)
		if sampled && !got {
			t.Fatalf("IntersectsBox=false but sampling found contact: %v %v", s, b)
		}
		// got && !sampled is possible only near tangency; verify with exact dist.
		if got && !sampled {
			d2 := s.dist2SegBox(b)
			if d2 > s.Radius*s.Radius+1e-6 {
				t.Fatalf("IntersectsBox=true but distance %v > r=%v: %v %v", math.Sqrt(d2), s.Radius, s, b)
			}
		}
	}
}

func TestClipParamRange(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 1, 1))
	s := Seg(V(-1, 0.5, 0.5), V(2, 0.5, 0.5), 0)
	t0, t1, ok := s.ClipParamRange(b)
	if !ok {
		t.Fatal("ClipParamRange missed a crossing segment")
	}
	if !almostEq(t0, 1.0/3, 1e-12) || !almostEq(t1, 2.0/3, 1e-12) {
		t.Errorf("clip = [%v,%v]", t0, t1)
	}
	if _, _, ok := Seg(V(5, 5, 5), V(6, 6, 6), 0).ClipParamRange(b); ok {
		t.Error("ClipParamRange hit a disjoint segment")
	}
	// Fully inside.
	t0, t1, ok = Seg(V(0.2, 0.2, 0.2), V(0.8, 0.8, 0.8), 0).ClipParamRange(b)
	if !ok || t0 != 0 || t1 != 1 {
		t.Errorf("inside clip = [%v,%v] ok=%v", t0, t1, ok)
	}
	// Axis-parallel segment outside one slab.
	if _, _, ok := Seg(V(2, 0.5, 0.5), V(2, 0.6, 0.5), 0).ClipParamRange(b); ok {
		t.Error("ClipParamRange hit a segment outside the X slab")
	}
}

// Property: points inside the clipped range are inside the box (with slack),
// points outside it are outside.
func TestQuickClipParamRange(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		b := randBox(rng, 10)
		s := Seg(randVec(rng, 20), randVec(rng, 20), 0)
		t0, t1, ok := s.ClipParamRange(b)
		for j := 0; j <= 50; j++ {
			u := float64(j) / 50
			in := b.Contains(s.PointAt(u))
			if in && !ok {
				t.Fatalf("clip says miss but point inside: %v %v", s, b)
			}
			if ok && in && (u < t0-1e-9 || u > t1+1e-9) {
				t.Fatalf("inside point %v outside clip [%v,%v]: %v %v", u, t0, t1, s, b)
			}
			if ok && !in && u > t0+1e-9 && u < t1-1e-9 {
				t.Fatalf("outside point %v inside clip [%v,%v]: %v %v", u, t0, t1, s, b)
			}
		}
	}
}

// refAxisDist2 is AxisDist2 as it was written before ClosestPoints: the same
// clamped computation, returning the squared distance directly.
func refAxisDist2(s, o Segment) float64 {
	d1 := s.B.Sub(s.A)
	d2 := o.B.Sub(o.A)
	r := s.A.Sub(o.A)
	a := d1.Len2()
	e := d2.Len2()
	f := d2.Dot(r)
	var t1, t2 float64
	switch {
	case a == 0 && e == 0:
		return s.A.Dist2(o.A)
	case a == 0:
		t2 = clamp01(f / e)
	case e == 0:
		t1 = clamp01(-d1.Dot(r) / a)
	default:
		c := d1.Dot(r)
		b := d1.Dot(d2)
		den := a*e - b*b
		if den != 0 {
			t1 = clamp01((b*f - c*e) / den)
		}
		t2 = (b*t1 + f) / e
		if t2 < 0 {
			t2 = 0
			t1 = clamp01(-c / a)
		} else if t2 > 1 {
			t2 = 1
			t1 = clamp01((b - c) / a)
		}
	}
	p1 := s.A.Add(d1.Scale(t1))
	p2 := o.A.Add(d2.Scale(t2))
	return p1.Dist2(p2)
}

// TestClosestPoints: AxisDist2 through ClosestPoints equals the direct form
// bit for bit, p and q lie on their axes, and no sampled pair of axis points
// is closer — over random, parallel, degenerate and point-like segments.
func TestClosestPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var pairs [][2]Segment
	for i := 0; i < 400; i++ {
		s, o := randSeg(rng, 10), randSeg(rng, 10)
		d := s.B.Sub(s.A).Scale(rng.Float64()*2 - 1)
		par := Seg(o.A, o.A.Add(d), o.Radius)        // parallel to s
		col := Seg(s.A.Add(d), s.B.Add(d), s.Radius) // collinear with s
		pt := Sphere(o.A, o.Radius)                  // point-like
		pairs = append(pairs, [2]Segment{s, o}, [2]Segment{s, par}, [2]Segment{s, col},
			[2]Segment{s, pt}, [2]Segment{pt, s}, [2]Segment{pt, Sphere(s.A, 0)}, [2]Segment{s, s})
	}
	for _, sp := range pairs {
		s, o := sp[0], sp[1]
		if got, want := s.AxisDist2(o), refAxisDist2(s, o); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AxisDist2 = %v, direct form %v for %v %v", got, want, s, o)
		}
		p, q := s.ClosestPoints(o)
		if d := s.PointAt(s.ClosestPointParam(p)).Dist(p); d > 1e-9 {
			t.Fatalf("p %v off the axis of %v by %v", p, s, d)
		}
		if d := o.PointAt(o.ClosestPointParam(q)).Dist(q); d > 1e-9 {
			t.Fatalf("q %v off the axis of %v by %v", q, o, d)
		}
		if brute := bruteAxisDist2(s, o, 40); p.Dist2(q) > brute+1e-9 {
			t.Fatalf("closest points %v %v at %v, sampled %v", p, q, p.Dist2(q), brute)
		}
	}
}
