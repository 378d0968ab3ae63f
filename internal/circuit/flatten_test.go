package circuit

import (
	"math"
	"testing"

	"neurospatial/internal/geom"
	"neurospatial/internal/morphology"
)

// refFlatten is the flatten Build had before it sized Elements once: one
// serial append per segment, neuron by neuron, with the bounds grown element
// by element. It is the oracle for the pre-sized parallel fill.
func refFlatten(morphs []*morphology.Morphology) ([]Element, geom.AABB) {
	var elems []Element
	bounds := geom.EmptyAABB()
	add := func(neuron, branch, seg int32, s geom.Segment) {
		elems = append(elems, Element{ID: int32(len(elems)), Neuron: neuron, Branch: branch, Seg: seg, Shape: s})
		bounds = bounds.Union(s.Bounds())
	}
	for n, m := range morphs {
		add(int32(n), -1, 0, m.Soma)
		for _, b := range m.Branches {
			for i := 0; i < b.NumSegments(); i++ {
				add(int32(n), int32(b.ID), int32(i), b.Segment(i))
			}
		}
	}
	return elems, bounds
}

func vecBits(v geom.Vec) [3]uint64 {
	return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}

func boxBits(b geom.AABB) [2][3]uint64 { return [2][3]uint64{vecBits(b.Min), vecBits(b.Max)} }

// sameBits reports whether two elements agree bit for bit: == on a float
// would equate −0 with +0.
func sameBits(a, b Element) bool {
	return a.ID == b.ID && a.Neuron == b.Neuron && a.Branch == b.Branch && a.Seg == b.Seg &&
		vecBits(a.Shape.A) == vecBits(b.Shape.A) && vecBits(a.Shape.B) == vecBits(b.Shape.B) &&
		math.Float64bits(a.Shape.Radius) == math.Float64bits(b.Shape.Radius)
}

func TestBuildMatchesAppendFlatten(t *testing.T) {
	layered := tinyParams()
	layered.Neurons = 24
	layered.Layers = CorticalLayers()
	layered.Seed = 5
	for name, base := range map[string]Params{"uniform": tinyParams(), "layered": layered} {
		serial := base
		serial.Workers = 1
		want, wantBounds := refFlatten(MustBuild(serial).Morphologies)
		for _, w := range []int{1, 2, 3, 8} {
			p := base
			p.Workers = w
			c := MustBuild(p)
			if len(c.Elements) != len(want) || cap(c.Elements) != len(want) {
				t.Fatalf("%s workers=%d: %d elements (cap %d), want %d", name, w, len(c.Elements), cap(c.Elements), len(want))
			}
			for i := range want {
				if !sameBits(c.Elements[i], want[i]) {
					t.Fatalf("%s workers=%d: element %d is %+v, want %+v", name, w, i, c.Elements[i], want[i])
				}
			}
			if boxBits(c.Bounds) != boxBits(wantBounds) {
				t.Errorf("%s workers=%d: bounds %v, want %v", name, w, c.Bounds, wantBounds)
			}
		}
	}
}
