package query

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"neurospatial/internal/geom"
)

func TestWalkthroughValidation(t *testing.T) {
	path := []geom.Vec{geom.V(0, 0, 0), geom.V(10, 0, 0)}
	if _, err := Walkthrough(path[:1], 1, 1); err == nil {
		t.Error("single-point path accepted")
	}
	if _, err := Walkthrough(path, 0, 1); err == nil {
		t.Error("zero stride accepted")
	}
	if _, err := Walkthrough(path, 1, -1); err == nil {
		t.Error("negative radius accepted")
	}
}

// TestWalkthroughRejectsNonFiniteAndStallingStrides: NaN and infinite strides
// and radii are errors, and so is a stride too small to move a sample off
// its coordinates (1e-14 at x ≈ 1000, where one ulp is ≈ 1.1e-13), which
// would otherwise emit the same sample until memory runs out.
func TestWalkthroughRejectsNonFiniteAndStallingStrides(t *testing.T) {
	path := []geom.Vec{geom.V(0, 0, 0), geom.V(10, 0, 0)}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Walkthrough(path, bad, 1); err == nil {
			t.Errorf("stride %v accepted", bad)
		}
		if _, err := Walkthrough(path, 1, bad); err == nil {
			t.Errorf("radius %v accepted", bad)
		}
	}
	far := []geom.Vec{geom.V(1000, 0, 0), geom.V(1001, 0, 0)}
	if _, err := Walkthrough(far, 1e-14, 1); err == nil {
		t.Error("a stride that cannot advance the walk was accepted")
	}
	// A stride of two ulps there walks a segment ten ulps long in five.
	ulp := math.Nextafter(1000, 2000) - 1000
	short := []geom.Vec{far[0], geom.V(1000+10*ulp, 0, 0)}
	if seq, err := Walkthrough(short, 2*ulp, 1); err != nil {
		t.Errorf("stride of two ulps at x = 1000: %v", err)
	} else if seq.Len() != 6 {
		t.Errorf("stride of two ulps at x = 1000: %d steps, want 6", seq.Len())
	}
}

// TestWalkthroughRejectsWalksAboveTheCap: a stride that moves a sample but
// is tiny against the path — 1e-13 over 1 µm at x ≈ 1000, ≈ 10^7 steps — is
// an error that names the step count and the cap, returned before the walk
// allocates.
func TestWalkthroughRejectsWalksAboveTheCap(t *testing.T) {
	path := []geom.Vec{geom.V(1000, 0, 0), geom.V(1000+1e-6, 0, 0)}
	_, err := Walkthrough(path, 1e-13, 1)
	if err == nil {
		t.Fatal("a walk above the step cap was accepted")
	}
	n := math.Floor(PathLength(path)/1e-13) + 2
	for _, want := range []string{fmt.Sprintf("%.0f steps", n), fmt.Sprintf("cap of %d", MaxSteps)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestWalkthroughStraightLine(t *testing.T) {
	path := []geom.Vec{geom.V(0, 0, 0), geom.V(10, 0, 0)}
	seq, err := Walkthrough(path, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Samples at 0,2,4,6,8,10.
	if seq.Len() != 6 {
		t.Fatalf("steps = %d, want 6", seq.Len())
	}
	for i, st := range seq.Steps {
		want := geom.V(float64(i)*2, 0, 0)
		if st.Center.Dist(want) > 1e-9 {
			t.Errorf("step %d center %v, want %v", i, st.Center, want)
		}
		if st.Box != geom.BoxAround(want, 3) {
			t.Errorf("step %d box wrong", i)
		}
	}
	if seq.Radius != 3 {
		t.Errorf("radius = %v", seq.Radius)
	}
}

func TestWalkthroughMultiSegment(t *testing.T) {
	// L-shaped path, total length 20.
	path := []geom.Vec{geom.V(0, 0, 0), geom.V(10, 0, 0), geom.V(10, 10, 0)}
	seq, err := Walkthrough(path, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Strides at arc lengths 0,3,6,9,12,15,18 plus the tip at 20.
	if seq.Len() != 8 {
		t.Fatalf("steps = %d, want 8", seq.Len())
	}
	// Consecutive samples are exactly stride apart in arc length, which for
	// straight runs bounds the chord distance by the stride.
	for i := 0; i+1 < seq.Len()-1; i++ {
		d := seq.Steps[i].Center.Dist(seq.Steps[i+1].Center)
		if d > 3+1e-9 {
			t.Errorf("step %d->%d chord %v exceeds stride", i, i+1, d)
		}
	}
	// Last step is the path tip.
	if seq.Steps[seq.Len()-1].Center != geom.V(10, 10, 0) {
		t.Error("walkthrough does not reach the tip")
	}
	// All centers lie on the path.
	for i, st := range seq.Steps {
		if distToPath(st.Center, path) > 1e-9 {
			t.Errorf("step %d center %v off path", i, st.Center)
		}
	}
}

func distToPath(p geom.Vec, path []geom.Vec) float64 {
	best := math.Inf(1)
	for i := 0; i+1 < len(path); i++ {
		s := geom.Seg(path[i], path[i+1], 0)
		t := s.ClosestPointParam(p)
		if d := s.PointAt(t).Dist(p); d < best {
			best = d
		}
	}
	return best
}

func TestWalkthroughZeroLengthSegments(t *testing.T) {
	path := []geom.Vec{geom.V(0, 0, 0), geom.V(0, 0, 0), geom.V(4, 0, 0)}
	seq, err := Walkthrough(path, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 5 {
		t.Fatalf("steps = %d, want 5", seq.Len())
	}
}

func TestWalkthroughStrideLongerThanPath(t *testing.T) {
	path := []geom.Vec{geom.V(0, 0, 0), geom.V(1, 0, 0)}
	seq, err := Walkthrough(path, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Start plus tip.
	if seq.Len() != 2 {
		t.Fatalf("steps = %d, want 2", seq.Len())
	}
}

func TestWalkthroughDuplicateConsecutivePoints(t *testing.T) {
	// Duplicates at the start, in the middle and at the tip: the zero-length
	// segments must be skipped without stalling the arc-length accumulator
	// or emitting duplicate steps.
	path := []geom.Vec{
		geom.V(0, 0, 0), geom.V(0, 0, 0),
		geom.V(2, 0, 0), geom.V(2, 0, 0),
		geom.V(5, 0, 0), geom.V(5, 0, 0),
	}
	seq, err := Walkthrough(path, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Arc length 5, stride 2: samples at 0, 2, 4 plus the tip at 5.
	if seq.Len() != 4 {
		t.Fatalf("steps = %d, want 4", seq.Len())
	}
	for i := 0; i+1 < seq.Len(); i++ {
		if seq.Steps[i].Center.Dist(seq.Steps[i+1].Center) < 1e-12 {
			t.Errorf("steps %d and %d are duplicates at %v", i, i+1, seq.Steps[i].Center)
		}
	}
	if tip := seq.Steps[seq.Len()-1].Center; tip != geom.V(5, 0, 0) {
		t.Errorf("tip step at %v, want (5,0,0)", tip)
	}
}

func TestWalkthroughStrideExceedsWholePath(t *testing.T) {
	// A stride longer than the entire arc length must still cover the path:
	// the start step plus the tip step, never zero or one.
	path := []geom.Vec{geom.V(0, 0, 0), geom.V(1, 1, 0), geom.V(2, 0, 0)}
	seq, err := Walkthrough(path, 1000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 2 {
		t.Fatalf("steps = %d, want 2 (start + tip)", seq.Len())
	}
	if seq.Steps[0].Center != path[0] || seq.Steps[1].Center != path[len(path)-1] {
		t.Errorf("steps at %v and %v, want path start and tip",
			seq.Steps[0].Center, seq.Steps[1].Center)
	}
}

// TestWalkthroughStepCountProperty is the satellite property test: on random
// jagged paths the emitted step count must match PathLength/stride within
// ±1 of the exact sampling count floor(L/stride)+1 (the +1 is the start
// step; the tip step accounts for the one-sided slack).
func TestWalkthroughStepCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		path := make([]geom.Vec, n)
		cur := geom.V(0, 0, 0)
		for i := range path {
			path[i] = cur
			step := geom.V(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
			if rng.Intn(5) == 0 {
				step = geom.V(0, 0, 0) // inject duplicate consecutive points
			}
			cur = cur.Add(step)
		}
		l := PathLength(path)
		if l == 0 {
			continue // fully degenerate path; Walkthrough rejects radius-only input elsewhere
		}
		stride := 0.5 + rng.Float64()*2*l // spans sub-stride to stride >> L
		seq, err := Walkthrough(path, stride, 1)
		if err != nil {
			t.Fatal(err)
		}
		exact := math.Floor(l/stride) + 1
		if diff := math.Abs(float64(seq.Len()) - exact); diff > 1 {
			t.Fatalf("trial %d: %d steps for L=%v stride=%v, want %v±1",
				trial, seq.Len(), l, stride, exact)
		}
	}
}

func TestPathLength(t *testing.T) {
	path := []geom.Vec{geom.V(0, 0, 0), geom.V(3, 0, 0), geom.V(3, 4, 0)}
	if got := PathLength(path); got != 7 {
		t.Errorf("PathLength = %v", got)
	}
	if PathLength(nil) != 0 || PathLength(path[:1]) != 0 {
		t.Error("degenerate path lengths wrong")
	}
}
