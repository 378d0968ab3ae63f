// Package query models the interactive spatial range-query *sequences* of §3
// of the paper: a scientist follows a structure (a neuron branch, an artery,
// an airway) through the model, issuing a range query around each successive
// point of interest, inspecting the result, then moving on.
//
// The demo's "user" walking through the model is replaced here by scripted
// walkthroughs along ground-truth branch paths from the circuit generator: the
// trajectory is an actual jagged neurite path, which is precisely the input
// that defeats location-only prefetchers and motivates SCOUT.
package query

import (
	"fmt"

	"neurospatial/internal/geom"
)

// Step is one query of a moving sequence.
type Step struct {
	// Center is the query's center, a point on the followed trajectory.
	Center geom.Vec
	// Box is the cubic range query around Center.
	Box geom.AABB
}

// Sequence is an ordered list of range queries along a trajectory.
type Sequence struct {
	// Steps holds the queries in execution order.
	Steps []Step
	// Radius is the half-extent used for every query box.
	Radius float64
}

// Len returns the number of steps.
func (s *Sequence) Len() int { return len(s.Steps) }

// Walkthrough builds the query sequence a user following the given polyline
// path generates: the path is resampled at arc-length intervals of stride and
// a cubic range query of half-extent radius is issued at each sample. This is
// the §3 workload: "at every step they retrieve the surroundings of the
// branch at a particular point and visualize it".
func Walkthrough(path []geom.Vec, stride, radius float64) (*Sequence, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("query: walkthrough path needs >= 2 points, got %d", len(path))
	}
	if stride <= 0 {
		return nil, fmt.Errorf("query: stride must be positive, got %v", stride)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("query: radius must be positive, got %v", radius)
	}
	seq := &Sequence{Radius: radius}
	emit := func(p geom.Vec) {
		seq.Steps = append(seq.Steps, Step{Center: p, Box: geom.BoxAround(p, radius)})
	}
	emit(path[0])
	carried := 0.0 // distance already covered toward the next sample
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		segLen := a.Dist(b)
		if segLen == 0 {
			continue
		}
		// Emit samples on this segment at global arc-length multiples of
		// stride.
		for carried+segLen >= stride {
			t := (stride - carried) / segLen
			p := a.Lerp(b, t)
			emit(p)
			a = p
			segLen = a.Dist(b)
			carried = 0
		}
		carried += segLen
	}
	// Always include the path end so the walkthrough reaches the tip.
	last := seq.Steps[len(seq.Steps)-1].Center
	tip := path[len(path)-1]
	if last.Dist(tip) > 1e-9 {
		emit(tip)
	}
	return seq, nil
}

// PathLength returns the arc length of a polyline.
func PathLength(path []geom.Vec) float64 {
	var l float64
	for i := 0; i+1 < len(path); i++ {
		l += path[i].Dist(path[i+1])
	}
	return l
}
