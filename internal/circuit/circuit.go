// Package circuit builds tissue models: collections of synthetic neuron
// morphologies placed in a volume, flattened into the element arrays the
// spatial indexes and joins operate on.
//
// A circuit plays the role of the Blue Brain Project microcircuits the demo
// uses: §1 of the paper describes models of thousands to a million neurons,
// each neuron contributing thousands of branch segments. Density — the number
// of elements per unit volume — is the key experimental variable (FLAT's
// advantage grows with it), so the builder exposes it directly: the same
// volume can be filled with increasing neuron counts.
package circuit

import (
	"fmt"
	"math"
	"math/rand"

	"neurospatial/internal/geom"
	"neurospatial/internal/morphology"
	"neurospatial/internal/parallel"
)

// Element is one indexable spatial object: a single capsule segment of a
// neuron, tagged with its provenance so results can be mapped back to
// morphology ground truth.
type Element struct {
	// ID is the element's index in Circuit.Elements.
	ID int32
	// Neuron is the index of the owning neuron in Circuit.Morphologies.
	Neuron int32
	// Branch is the Branch.ID within the neuron, or -1 for the soma.
	Branch int32
	// Seg is the segment index within the branch (0 for the soma).
	Seg int32
	// Shape is the capsule geometry.
	Shape geom.Segment
}

// Bounds returns the bounding box of the element's capsule.
func (e *Element) Bounds() geom.AABB { return e.Shape.Bounds() }

// Layer describes one horizontal band of a layered circuit: a fraction of
// the volume's Y extent holding a fraction of the neurons. Cortical tissue is
// organized in such layers, with cell densities differing several-fold
// between them — the "dense and sparse regions" the demo lets the audience
// query (§2.2) and the skew that separates data-oriented from space-oriented
// partitioning (§4.1).
type Layer struct {
	// Height is the layer's share of the volume's Y extent; heights are
	// normalized, so only ratios matter.
	Height float64
	// Weight is the layer's share of the neurons; weights are normalized.
	Weight float64
}

// CorticalLayers returns a five-layer profile with density contrasts in the
// range reported for rodent neocortex: thin, packed granular layers between
// sparse ones.
func CorticalLayers() []Layer {
	return []Layer{
		{Height: 0.12, Weight: 0.02}, // L1: nearly cell-free
		{Height: 0.20, Weight: 0.30}, // L2/3
		{Height: 0.12, Weight: 0.28}, // L4: packed granular
		{Height: 0.26, Weight: 0.25}, // L5
		{Height: 0.30, Weight: 0.15}, // L6
	}
}

// Params configures a circuit build.
type Params struct {
	// Volume is the tissue region somas are placed in. Branches may extend
	// beyond it, as they do at the boundaries of real microcircuits.
	Volume geom.AABB
	// Neurons is the number of cells to place.
	Neurons int
	// Morphology configures the per-neuron generator.
	Morphology morphology.Params
	// Layers optionally stratifies the volume along Y; nil places somas
	// uniformly. Use CorticalLayers for the realistic skewed profile.
	Layers []Layer
	// Seed makes the build deterministic; neuron i uses sub-seed
	// Seed*1e9 + i.
	Seed int64
	// Workers parallelizes morphology generation and flattening across
	// neurons. Every neuron draws from its own sub-seeded generator and
	// fills its own run of Elements, so the built circuit is bit-identical
	// for any worker count. 0 or 1 generates serially;
	// values > 1 use that many workers; negative values use one worker per
	// CPU.
	Workers int
}

// DefaultParams returns a small but non-trivial circuit: 64 neurons in a
// 400 µm cube, ≈30k segments.
func DefaultParams() Params {
	return Params{
		Volume:     geom.Box(geom.V(0, 0, 0), geom.V(400, 400, 400)),
		Neurons:    64,
		Morphology: morphology.DefaultParams(),
		Seed:       1,
	}
}

// Circuit is a built tissue model.
type Circuit struct {
	// Params echoes the build configuration.
	Params Params
	// Morphologies holds every neuron, indexed by Element.Neuron.
	Morphologies []*morphology.Morphology
	// Elements is the flattened dataset all indexes consume.
	Elements []Element
	// Bounds is the union of all element bounds (generally larger than
	// Params.Volume because branches overhang).
	Bounds geom.AABB
}

// Build constructs a circuit. Somas are placed on a jittered grid so cell
// bodies are spread through the volume the way cortical somas are, and every
// neuron gets an independent deterministic morphology.
func Build(p Params) (*Circuit, error) {
	if p.Neurons <= 0 {
		return nil, fmt.Errorf("circuit: need at least one neuron, got %d", p.Neurons)
	}
	if p.Volume.IsEmpty() {
		return nil, fmt.Errorf("circuit: empty volume %v", p.Volume)
	}
	c := &Circuit{Params: p, Bounds: geom.EmptyAABB()}
	rng := rand.New(rand.NewSource(p.Seed))

	positions, err := layeredPositions(rng, p)
	if err != nil {
		return nil, err
	}
	// Every neuron is independently sub-seeded, so morphology generation
	// parallelizes cleanly. Element IDs encode neuron order, so the
	// per-neuron segment counts' prefix sums give each neuron's first ID:
	// Elements is sized once and every neuron fills its own run.
	workers := 1
	if p.Workers != 0 && p.Workers != 1 {
		workers = parallel.Workers(p.Workers)
	}
	c.Morphologies = parallel.Map(workers, p.Neurons, func(_, i int) *morphology.Morphology {
		return morphology.Generate(positions[i], p.Morphology, p.Seed*1_000_000_007+int64(i))
	})
	first := make([]int, p.Neurons+1)
	for i, m := range c.Morphologies {
		first[i+1] = first[i] + m.NumSegments()
	}
	c.Elements = make([]Element, first[p.Neurons])
	// Union takes the per-axis min and max, by math.Min's rules for NaN and
	// ±0, and skips empty boxes, so the per-neuron bounds unite to the bits
	// a single pass would give.
	bounds := parallel.Map(workers, p.Neurons, func(_, i int) geom.AABB {
		return fillElements(c.Elements[first[i]:first[i+1]], int32(i), int32(first[i]), c.Morphologies[i])
	})
	for _, b := range bounds {
		c.Bounds = c.Bounds.Union(b)
	}
	return c, nil
}

// MustBuild is Build for static configurations that cannot fail.
func MustBuild(p Params) *Circuit {
	c, err := Build(p)
	if err != nil {
		panic(err)
	}
	return c
}

// fillElements flattens one morphology into run, which holds exactly its
// segments and whose first element gets ID first: the soma, then every
// branch's segments in order. It returns the union of their bounds.
func fillElements(run []Element, neuron, first int32, m *morphology.Morphology) geom.AABB {
	run[0] = Element{ID: first, Neuron: neuron, Branch: -1, Shape: m.Soma}
	k := 1
	for _, b := range m.Branches {
		for i := 0; i < b.NumSegments(); i++ {
			run[k] = Element{ID: first + int32(k), Neuron: neuron, Branch: int32(b.ID), Seg: int32(i), Shape: b.Segment(i)}
			k++
		}
	}
	bounds := geom.EmptyAABB()
	for i := range run {
		bounds = bounds.Union(run[i].Bounds())
	}
	return bounds
}

// Density returns the number of elements per unit volume of the soma
// placement region.
func (c *Circuit) Density() float64 {
	return float64(len(c.Elements)) / c.Params.Volume.Volume()
}

// ElementsIn returns the IDs of all elements whose capsules intersect the
// query box, by brute force. It is the oracle the index tests compare
// against.
func (c *Circuit) ElementsIn(q geom.AABB) []int32 {
	var out []int32
	for i := range c.Elements {
		if c.Elements[i].Shape.IntersectsBox(q) {
			out = append(out, c.Elements[i].ID)
		}
	}
	return out
}

// BranchPath returns the polyline running from the first point of the stem
// ancestor of branch (neuron, branchID) out to that branch's tip. It is the
// ground-truth trajectory the SCOUT walkthroughs follow.
func (c *Circuit) BranchPath(neuron int32, branchID int) ([]geom.Vec, error) {
	if neuron < 0 || int(neuron) >= len(c.Morphologies) {
		return nil, fmt.Errorf("circuit: neuron %d out of range", neuron)
	}
	m := c.Morphologies[neuron]
	if branchID < 0 || branchID >= len(m.Branches) {
		return nil, fmt.Errorf("circuit: branch %d out of range", branchID)
	}
	ids := m.PathToRoot(branchID)
	// PathToRoot lists tip→stem; walk it in reverse to go stem→tip.
	var path []geom.Vec
	for i := len(ids) - 1; i >= 0; i-- {
		b := m.Branches[ids[i]]
		pts := b.Points
		if len(path) > 0 {
			pts = pts[1:] // first point duplicates the bifurcation point
		}
		path = append(path, pts...)
	}
	return path, nil
}

// LongestPath returns the (neuron, branch) pair whose stem-to-tip path is the
// longest in the circuit, along with the path itself. Experiment drivers use
// it to script interesting walkthroughs.
func (c *Circuit) LongestPath() (neuron int32, branch int, path []geom.Vec) {
	best := -1.0
	for ni, m := range c.Morphologies {
		for _, tip := range m.Terminals() {
			p, err := c.BranchPath(int32(ni), tip)
			if err != nil {
				continue
			}
			l := pathLength(p)
			if l > best {
				best = l
				neuron, branch, path = int32(ni), tip, p
			}
		}
	}
	return neuron, branch, path
}

func pathLength(p []geom.Vec) float64 {
	var l float64
	for i := 0; i+1 < len(p); i++ {
		l += p[i].Dist(p[i+1])
	}
	return l
}

// layeredPositions distributes somas across the configured layers (or the
// whole volume when no layers are set).
func layeredPositions(rng *rand.Rand, p Params) ([]geom.Vec, error) {
	if len(p.Layers) == 0 {
		return somaPositions(rng, p.Volume, p.Neurons), nil
	}
	var heightSum, weightSum float64
	for _, l := range p.Layers {
		if l.Height <= 0 || l.Weight < 0 {
			return nil, fmt.Errorf("circuit: invalid layer %+v", l)
		}
		heightSum += l.Height
		weightSum += l.Weight
	}
	if weightSum <= 0 {
		return nil, fmt.Errorf("circuit: layer weights sum to zero")
	}
	var out []geom.Vec
	y0 := p.Volume.Min.Y
	extent := p.Volume.Size().Y
	remaining := p.Neurons
	for i, l := range p.Layers {
		h := extent * l.Height / heightSum
		n := int(math.Round(float64(p.Neurons) * l.Weight / weightSum))
		if i == len(p.Layers)-1 {
			n = remaining // absorb rounding
		}
		if n > remaining {
			n = remaining
		}
		if n > 0 {
			band := p.Volume
			band.Min.Y = y0
			band.Max.Y = y0 + h
			out = append(out, somaPositions(rng, band, n)...)
			remaining -= n
		}
		y0 += h
	}
	// Rounding may leave a remainder; place it in the heaviest layer.
	if remaining > 0 {
		heaviest := 0
		for i, l := range p.Layers {
			if l.Weight > p.Layers[heaviest].Weight {
				heaviest = i
			}
		}
		y0 = p.Volume.Min.Y
		for i := 0; i < heaviest; i++ {
			y0 += extent * p.Layers[i].Height / heightSum
		}
		band := p.Volume
		band.Min.Y = y0
		band.Max.Y = y0 + extent*p.Layers[heaviest].Height/heightSum
		out = append(out, somaPositions(rng, band, remaining)...)
	}
	// Deterministic shuffle so neuron index does not encode the layer.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// somaPositions places n somas on a jittered grid inside the volume. The grid
// spreads cells evenly; the jitter removes the artificial regularity.
func somaPositions(rng *rand.Rand, vol geom.AABB, n int) []geom.Vec {
	// Choose grid dimensions with cells as cubic as possible.
	size := vol.Size()
	k := math.Cbrt(float64(n) / math.Max(size.X*size.Y*size.Z, 1e-12))
	nx := maxInt(1, int(math.Round(size.X*k)))
	ny := maxInt(1, int(math.Round(size.Y*k)))
	nz := maxInt(1, int(math.Round(size.Z*k)))
	for nx*ny*nz < n {
		// Grow the axis with the largest per-cell extent.
		cx, cy, cz := size.X/float64(nx), size.Y/float64(ny), size.Z/float64(nz)
		switch {
		case cx >= cy && cx >= cz:
			nx++
		case cy >= cz:
			ny++
		default:
			nz++
		}
	}
	cell := geom.V(size.X/float64(nx), size.Y/float64(ny), size.Z/float64(nz))
	out := make([]geom.Vec, 0, n)
	for iz := 0; iz < nz && len(out) < n; iz++ {
		for iy := 0; iy < ny && len(out) < n; iy++ {
			for ix := 0; ix < nx && len(out) < n; ix++ {
				p := geom.Vec{
					X: vol.Min.X + (float64(ix)+0.25+rng.Float64()*0.5)*cell.X,
					Y: vol.Min.Y + (float64(iy)+0.25+rng.Float64()*0.5)*cell.Y,
					Z: vol.Min.Z + (float64(iz)+0.25+rng.Float64()*0.5)*cell.Z,
				}
				out = append(out, p)
			}
		}
	}
	// Deterministic shuffle so truncating the last grid layer does not bias
	// soma positions toward low Z.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
