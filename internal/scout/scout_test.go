package scout

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"neurospatial/internal/circuit"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/prefetch"
	"neurospatial/internal/query"
	"neurospatial/internal/race"
	"neurospatial/internal/rtree"
)

// fixture builds a circuit, its FLAT index and a walkthrough along its
// longest branch path.
type fixture struct {
	circ  *circuit.Circuit
	index *flat.Index
	seq   *query.Sequence
	// followed maps element IDs on the followed branch path.
	followed map[int32]bool
}

func buildFixture(t testing.TB, neurons int) *fixture {
	t.Helper()
	p := circuit.DefaultParams()
	p.Neurons = neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(300, 300, 300))
	c, err := circuit.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]rtree.Item, len(c.Elements))
	for i := range c.Elements {
		items[i] = rtree.Item{Box: c.Elements[i].Bounds(), ID: c.Elements[i].ID}
	}
	idx, err := flat.Build(items, flat.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	neuron, branch, path := c.LongestPath()
	seq, err := query.Walkthrough(path, 8, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: elements on the followed stem-to-tip branch chain.
	followed := make(map[int32]bool)
	chain := make(map[int]bool)
	for _, id := range c.Morphologies[neuron].PathToRoot(branch) {
		chain[id] = true
	}
	for _, e := range c.Elements {
		if e.Neuron == neuron && e.Branch >= 0 && chain[int(e.Branch)] {
			followed[e.ID] = true
		}
	}
	return &fixture{circ: c, index: idx, seq: seq, followed: followed}
}

func (f *fixture) simulator() *prefetch.Simulator {
	return &prefetch.Simulator{
		Index:     f.index,
		Segment:   func(id int32) geom.Segment { return f.circ.Elements[id].Shape },
		Cost:      pager.DefaultCostModel(),
		ThinkTime: 500 * time.Millisecond,
		PoolPages: f.index.NumPages(),
	}
}

func (f *fixture) boxes() []geom.AABB {
	out := make([]geom.AABB, f.seq.Len())
	for i, s := range f.seq.Steps {
		out[i] = s.Box
	}
	return out
}

func TestSkeletonReconstructionFindsStructures(t *testing.T) {
	f := buildFixture(t, 10)
	s := New(Options{})
	ctx := &prefetch.Context{
		Index:   f.index,
		Segment: func(id int32) geom.Segment { return f.circ.Elements[id].Shape },
	}
	q := f.seq.Steps[f.seq.Len()/2].Box
	ctx.History = []geom.AABB{q}
	var result []int32
	f.index.Query(q, nil, func(id int32) { result = append(result, id) })
	if len(result) == 0 {
		t.Fatal("mid-walkthrough query empty")
	}
	n := s.reconstruct(ctx, result)
	if n == 0 {
		t.Fatal("no structures reconstructed")
	}
	// The labels partition the result: every position carries a structure
	// number below n, numbers appear in order of first appearance (so every
	// one of them is used), and an element never carries two.
	structOf := make(map[int32]int32)
	next := int32(0)
	for i, id := range result {
		st := s.label[i]
		if st < 0 || st > next {
			t.Fatalf("position %d labelled %d before structure %d appeared", i, st, next)
		}
		if st == next {
			next++
		}
		if prev, ok := structOf[id]; ok && prev != st {
			t.Fatal("element in two structures")
		}
		structOf[id] = st
	}
	if int(next) != n {
		t.Fatalf("%d structures labelled, %d reported", next, n)
	}
	// Elements of one branch never split across structures: every pair of
	// consecutive segments shares an endpoint.
	byBranch := make(map[[2]int32][]int32)
	for _, id := range result {
		e := f.circ.Elements[id]
		if e.Branch >= 0 {
			k := [2]int32{e.Neuron, e.Branch}
			byBranch[k] = append(byBranch[k], id)
		}
	}
	for k, ids := range byBranch {
		// Only consecutive segments are guaranteed connected inside q.
		for i := 0; i+1 < len(ids); i++ {
			a, b := f.circ.Elements[ids[i]], f.circ.Elements[ids[i+1]]
			if b.Seg == a.Seg+1 && structOf[ids[i]] != structOf[ids[i+1]] {
				t.Fatalf("branch %v consecutive segments split across structures", k)
			}
		}
	}
}

func TestExitDetection(t *testing.T) {
	q := geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 10))
	// Leaves through the +X face.
	ex, ok := exitOf(geom.Seg(geom.V(8, 5, 5), geom.V(14, 5, 5), 0.1), q)
	if !ok {
		t.Fatal("exit not detected")
	}
	if ex.point.Dist(geom.V(10, 5, 5)) > 1e-9 {
		t.Errorf("exit point %v", ex.point)
	}
	if ex.dir.Dist(geom.V(1, 0, 0)) > 1e-9 {
		t.Errorf("exit dir %v", ex.dir)
	}
	// Enters (A outside, B inside): the exit direction points outward.
	ex, ok = exitOf(geom.Seg(geom.V(14, 5, 5), geom.V(8, 5, 5), 0.1), q)
	if !ok {
		t.Fatal("reverse exit not detected")
	}
	if ex.dir.Dist(geom.V(1, 0, 0)) > 1e-9 {
		t.Errorf("reverse exit dir %v", ex.dir)
	}
	// Fully inside: no exit.
	if _, ok := exitOf(geom.Seg(geom.V(2, 2, 2), geom.V(8, 8, 8), 0.1), q); ok {
		t.Error("interior segment reported an exit")
	}
	// Crossing corner-to-corner (both endpoints outside).
	ex, ok = exitOf(geom.Seg(geom.V(-5, 5, 5), geom.V(15, 5, 5), 0.1), q)
	if !ok {
		t.Fatal("through-segment exit not detected")
	}
	if ex.point.Dist(geom.V(10, 5, 5)) > 1e-9 {
		t.Errorf("through-segment exit at %v", ex.point)
	}
}

func TestCandidatePruningConverges(t *testing.T) {
	f := buildFixture(t, 10)
	sim := f.simulator()
	s := New(Options{})
	if _, err := sim.Run(s, f.boxes()); err != nil {
		t.Fatal(err)
	}
	// After a full walkthrough the candidate set must have shrunk to a
	// handful of structures (ideally 1; bifurcations can keep siblings).
	if s.LastCandidateCount() == 0 {
		t.Fatal("no candidates at walkthrough end")
	}
	if s.LastCandidateCount() > 4 {
		t.Errorf("candidate set did not converge: %d structures", s.LastCandidateCount())
	}
}

func TestFollowedBranchNeverPruned(t *testing.T) {
	f := buildFixture(t, 10)
	s := New(Options{})
	ctx := &prefetch.Context{
		Index:   f.index,
		Segment: func(id int32) geom.Segment { return f.circ.Elements[id].Shape },
	}
	budget := 64
	for _, step := range f.seq.Steps {
		ctx.History = append(ctx.History, step.Box)
		var result []int32
		f.index.Query(step.Box, nil, func(id int32) { result = append(result, id) })
		s.Predict(ctx, step.Box, result, budget)
		// Any followed element in this result must be in a candidate.
		for _, id := range result {
			if f.followed[id] && !s.LastCandidateContains(id) {
				t.Fatalf("followed element %d pruned from candidates", id)
			}
		}
	}
}

func TestResetClearsState(t *testing.T) {
	f := buildFixture(t, 8)
	sim := f.simulator()
	s := New(Options{})
	r1, err := sim.Run(s, f.boxes())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Run(s, f.boxes())
	if err != nil {
		t.Fatal(err)
	}
	// Reset makes runs reproducible.
	if r1.DemandReads != r2.DemandReads || r1.PrefetchReads != r2.PrefetchReads {
		t.Errorf("runs differ after Reset: %+v vs %+v",
			r1.DemandReads, r2.DemandReads)
	}
	s.Reset()
	if s.LastCandidateCount() != 0 || s.LastCandidateContains(0) {
		t.Error("Reset did not clear candidates")
	}
}

func TestEmptyResultPredictsNothing(t *testing.T) {
	f := buildFixture(t, 8)
	s := New(Options{})
	ctx := &prefetch.Context{
		Index:   f.index,
		Segment: func(id int32) geom.Segment { return f.circ.Elements[id].Shape },
		History: []geom.AABB{geom.BoxAround(geom.V(1e5, 1e5, 1e5), 10)},
	}
	if got := s.Predict(ctx, ctx.History[0], nil, 10); len(got) != 0 {
		t.Errorf("empty result produced %d predictions", len(got))
	}
	if s.LastCandidateCount() != 0 {
		t.Error("candidates from empty result")
	}
}

func TestQuantizeTolerance(t *testing.T) {
	exact := New(Options{})
	a := geom.V(1.0000001, 2, 3)
	b := geom.V(1.0000002, 2, 3)
	if exact.quantize(a) == exact.quantize(b) {
		t.Error("exact quantization merged distinct points")
	}
	loose := New(Options{Tolerance: 0.01})
	if loose.quantize(a) != loose.quantize(b) {
		t.Error("tolerant quantization split near-identical points")
	}
}

// The headline comparison: SCOUT must beat the location-only baselines on
// walkthrough latency and keep high accuracy (Figure 6's statistics).
func TestScoutBeatsBaselines(t *testing.T) {
	f := buildFixture(t, 12)
	sim := f.simulator()
	boxes := f.boxes()
	if len(boxes) < 10 {
		t.Fatal("walkthrough too short to be meaningful")
	}

	none, err := sim.Run(prefetch.None{}, boxes)
	if err != nil {
		t.Fatal(err)
	}
	extrap, err := sim.Run(prefetch.Extrapolation{}, boxes)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sim.Run(New(Options{}), boxes)
	if err != nil {
		t.Fatal(err)
	}

	if none.PrefetchReads != 0 {
		t.Error("baseline 'none' prefetched")
	}
	if sc.Latency >= none.Latency {
		t.Errorf("SCOUT latency %v not below no-prefetch %v", sc.Latency, none.Latency)
	}
	if sc.Latency > extrap.Latency {
		t.Errorf("SCOUT latency %v above extrapolation %v", sc.Latency, extrap.Latency)
	}
	if sc.PrefetchHits == 0 {
		t.Error("SCOUT had no prefetch hits")
	}
	// All methods return identical results.
	if sc.Elements != none.Elements || extrap.Elements != none.Elements {
		t.Errorf("element counts differ: none=%d extrap=%d scout=%d",
			none.Elements, extrap.Elements, sc.Elements)
	}
}

// mapScout is SCOUT as it was before its per-step state became reused flat
// scratch: an element map per structure, a map union of the candidates, a
// map of seen pages and sort.SliceStable, all rebuilt on every step. It is
// kept only here, as the oracle TestPredictMatchesMapOracle holds Predict to.
// It sizes its predicted boxes as cubes from the query's X extent (Predict
// uses the per-axis extents, the same arithmetic on a cube) and has the
// budget-0 defect, so the oracle is driven on walkthrough boxes at a
// positive budget only.
type mapScout struct {
	opts               Options
	prevCandidates     []map[int32]struct{}
	lastCandidates     int
	lastCandidateElems map[int32]struct{}
}

type mapStructure struct {
	elems map[int32]struct{}
	exits []exitEdge
}

func newMapScout(opts Options) *mapScout { return &mapScout{opts: New(opts).opts} }

func (s *mapScout) Reset() {
	s.prevCandidates = nil
	s.lastCandidates = 0
	s.lastCandidateElems = nil
}

func (s *mapScout) LastCandidateContains(id int32) bool {
	_, ok := s.lastCandidateElems[id]
	return ok
}

func (s *mapScout) Predict(ctx *prefetch.Context, q geom.AABB, result []int32, budget int) []pager.PageID {
	structures := s.reconstruct(ctx, q, result)
	candidates := structures
	if len(s.prevCandidates) > 0 {
		var kept []mapStructure
		for _, st := range structures {
			if s.sharesElement(st.elems) {
				kept = append(kept, st)
			}
		}
		if len(kept) > 0 {
			candidates = kept
		}
	}
	s.prevCandidates = s.prevCandidates[:0]
	s.lastCandidateElems = make(map[int32]struct{})
	for _, st := range candidates {
		s.prevCandidates = append(s.prevCandidates, st.elems)
		for id := range st.elems {
			s.lastCandidateElems[id] = struct{}{}
		}
	}
	s.lastCandidates = len(candidates)

	radius := q.Size().X / 2
	advance := radius
	if n := len(ctx.History); n >= 2 {
		advance = ctx.History[n-1].Center().Dist(ctx.History[n-2].Center())
		if advance == 0 {
			advance = radius
		}
	}
	var travel geom.Vec
	if n := len(ctx.History); n >= 2 {
		travel = ctx.History[n-1].Center().Sub(ctx.History[n-2].Center()).Normalize()
	}
	var preds []ranked
	for _, st := range candidates {
		for _, ex := range st.exits {
			score := ex.dir.Dot(travel)
			r := radius * s.opts.PredictRadiusFactor
			one := ex.point.Add(ex.dir.Scale(advance))
			preds = append(preds, ranked{box: geom.BoxAround(one, r), score: score})
			two := ex.point.Add(ex.dir.Scale(2 * advance))
			preds = append(preds, ranked{box: geom.BoxAround(two, r), score: score - 0.01})
		}
	}
	sort.SliceStable(preds, func(i, j int) bool { return preds[i].score > preds[j].score })
	if len(preds) > s.opts.MaxPredictions {
		preds = preds[:s.opts.MaxPredictions]
	}
	var out []pager.PageID
	seen := make(map[pager.PageID]bool)
	for _, pr := range preds {
		for _, pg := range prefetch.PagesInRange(ctx.Index, pr.box) {
			if !seen[pg] {
				seen[pg] = true
				out = append(out, pg)
			}
			if len(out) >= budget {
				return out
			}
		}
	}
	return out
}

func (s *mapScout) sharesElement(elems map[int32]struct{}) bool {
	for _, prev := range s.prevCandidates {
		small, large := prev, elems
		if len(elems) < len(prev) {
			small, large = elems, prev
		}
		for id := range small {
			if _, ok := large[id]; ok {
				return true
			}
		}
	}
	return false
}

func (s *mapScout) reconstruct(ctx *prefetch.Context, q geom.AABB, result []int32) []mapStructure {
	if len(result) == 0 {
		return nil
	}
	parent := make([]int, len(result))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	joints := make(map[[3]int64]int, len(result)*2)
	register := func(i int, p geom.Vec) {
		k := (&Scout{opts: s.opts}).quantize(p)
		if j, ok := joints[k]; ok {
			union(i, j)
		} else {
			joints[k] = i
		}
	}
	segs := make([]geom.Segment, len(result))
	for i, id := range result {
		seg := ctx.Segment(id)
		segs[i] = seg
		register(i, seg.A)
		register(i, seg.B)
	}
	byRoot := make(map[int]*mapStructure)
	var order []int
	for i, id := range result {
		r := find(i)
		st, ok := byRoot[r]
		if !ok {
			st = &mapStructure{elems: make(map[int32]struct{})}
			byRoot[r] = st
			order = append(order, r)
		}
		st.elems[id] = struct{}{}
		if ex, ok := exitOf(segs[i], q); ok {
			st.exits = append(st.exits, ex)
		}
	}
	out := make([]mapStructure, 0, len(order))
	for _, r := range order {
		out = append(out, *byRoot[r])
	}
	return out
}

// TestPredictMatchesMapOracle walks every branch of a 64-neuron circuit —
// stem to each branch's end, with one empty-result step mid-walk — through
// one Scout (Reset between walks, so its scratch carries over) and through
// the map-based oracle. Results arrive in FLAT's crawl order (PagedQuery's)
// and in ascending ID order (Do's), at Tolerance 0 and 0.5 and with
// MaxPredictions 40 (five times the default's ranges). Every step must
// yield the same pages in the same order, the same candidate count and the
// same candidate membership for every result ID.
func TestPredictMatchesMapOracle(t *testing.T) {
	f := buildFixture(t, 64)
	seg := func(id int32) geom.Segment { return f.circ.Elements[id].Shape }
	far := geom.BoxAround(geom.V(1e5, 1e5, 1e5), 15)

	// The walks and their results, in crawl order.
	type walk struct {
		boxes   []geom.AABB
		results [][]int32
	}
	var walks []walk
	for n, m := range f.circ.Morphologies {
		for b := range m.Branches {
			path, err := f.circ.BranchPath(int32(n), b)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := query.Walkthrough(path, 8, 15)
			if err != nil {
				t.Fatal(err)
			}
			var w walk
			for i, st := range seq.Steps {
				if i == seq.Len()/2 {
					w.boxes = append(w.boxes, far)
					w.results = append(w.results, nil)
				}
				var result []int32
				f.index.Query(st.Box, nil, func(id int32) { result = append(result, id) })
				w.boxes = append(w.boxes, st.Box)
				w.results = append(w.results, result)
			}
			walks = append(walks, w)
		}
	}
	if testing.Short() || race.Enabled {
		walks = walks[:len(walks)/8]
	}

	steps := 0
	for _, run := range []Options{{Tolerance: 0}, {Tolerance: 0.5}, {MaxPredictions: 40}} {
		tol := run.Tolerance
		for _, idOrder := range []bool{false, true} {
			s, o := New(run), newMapScout(run)
			ctx := &prefetch.Context{Index: f.index, Segment: seg}
			for wi, w := range walks {
				s.Reset()
				o.Reset()
				ctx.History = ctx.History[:0]
				budget := 64
				if wi%3 == 2 {
					budget = 3
				}
				for i, q := range w.boxes {
					ctx.History = append(ctx.History, q)
					result := w.results[i]
					if idOrder {
						result = slices.Clone(result)
						slices.Sort(result)
					}
					want := o.Predict(ctx, q, result, budget)
					got := s.Predict(ctx, q, result, budget)
					where := func() string {
						return fmt.Sprintf("tolerance %g, %d predictions, ID order %v, walk %d, step %d", tol, s.opts.MaxPredictions, idOrder, wi, i)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: pages %v, oracle %v", where(), got, want)
					}
					if s.LastCandidateCount() != o.lastCandidates {
						t.Fatalf("%s: %d candidates, oracle %d", where(), s.LastCandidateCount(), o.lastCandidates)
					}
					for _, id := range result {
						if s.LastCandidateContains(id) != o.LastCandidateContains(id) {
							t.Fatalf("%s: candidate membership of %d differs", where(), id)
						}
					}
					steps++
				}
			}
		}
	}
	t.Logf("%d walks, %d steps compared", len(walks), steps)
}

// fixedPages is a PageGeometry that names the same pages for every range,
// appended to the caller's buffer, so an allocation count sees only the
// prefetcher's own.
type fixedPages struct {
	pages []pager.PageID
	calls *int
}

func (g fixedPages) PagesInRanges(dst []pager.RangePage, boxes []geom.AABB) []pager.RangePage {
	if g.calls != nil {
		*g.calls++
	}
	for w, lo := int32(0), 0; lo < len(boxes); w, lo = w+1, lo+pager.RangeWindow {
		mask := pager.WindowMask(len(boxes) - lo)
		for _, p := range g.pages {
			dst = append(dst, pager.RangePage{Page: p, Window: w, Mask: mask})
		}
	}
	return dst
}
func (g fixedPages) PageOf(int32) pager.PageID { return 0 }
func (g fixedPages) NumPages() int             { return 64 }

// TestPrefetchersRespectBudget: every prefetcher returns at most budget
// pages, and none at all for a budget of zero or below.
func TestPrefetchersRespectBudget(t *testing.T) {
	f := buildFixture(t, 10)
	boxes := f.boxes()
	markov := prefetch.NewMarkov()
	markov.TrainFromWalkthrough(&prefetch.Context{Index: f.index}, boxes)
	results := make([][]int32, len(boxes))
	for i, q := range boxes {
		f.index.Query(q, nil, func(id int32) { results[i] = append(results[i], id) })
	}
	walk := func(p prefetch.Prefetcher, budget int, step func(i int, pages []pager.PageID)) {
		p.Reset()
		ctx := &prefetch.Context{
			Index:   f.index,
			Segment: func(id int32) geom.Segment { return f.circ.Elements[id].Shape },
		}
		for i, q := range boxes {
			ctx.History = append(ctx.History, q)
			step(i, p.Predict(ctx, q, results[i], budget))
		}
	}
	for _, p := range []prefetch.Prefetcher{
		prefetch.None{}, prefetch.Hilbert{}, prefetch.Extrapolation{}, New(Options{}), markov,
	} {
		for _, budget := range []int{-1, 0, 1, 3, 64} {
			walk(p, budget, func(i int, pages []pager.PageID) {
				if len(pages) > max(budget, 0) {
					t.Errorf("%s, budget %d, step %d: %d pages", p.Name(), budget, i, len(pages))
				}
			})
		}
	}

	// SCOUT at budget 0 reads no page geometry but still prunes: its
	// candidates follow the same series as at a positive budget.
	s := New(Options{})
	var want []int
	walk(s, 64, func(int, []pager.PageID) { want = append(want, s.LastCandidateCount()) })
	calls := 0
	s.Reset()
	ctx := &prefetch.Context{
		Index:   fixedPages{calls: &calls},
		Segment: func(id int32) geom.Segment { return f.circ.Elements[id].Shape },
	}
	for i, q := range boxes {
		ctx.History = boxes[:i+1]
		s.Predict(ctx, q, results[i], 0)
		if s.LastCandidateCount() != want[i] {
			t.Fatalf("budget 0, step %d: %d candidates, %d at budget 64", i, s.LastCandidateCount(), want[i])
		}
	}
	if calls != 0 {
		t.Errorf("budget 0 called PagesInRanges %d times", calls)
	}
}

// boxRecorder is a PageGeometry that records the ranges it is asked for and
// answers each with one page.
type boxRecorder struct{ boxes *[]geom.AABB }

func (g boxRecorder) PagesInRanges(dst []pager.RangePage, boxes []geom.AABB) []pager.RangePage {
	for b, q := range boxes {
		*g.boxes = append(*g.boxes, q)
		dst = append(dst, pager.RangePage{Page: pager.PageID(len(*g.boxes) - 1), Window: int32(b / pager.RangeWindow), Mask: 1 << (b % pager.RangeWindow)})
	}
	return dst
}
func (g boxRecorder) PageOf(int32) pager.PageID { return 0 }
func (g boxRecorder) NumPages() int             { return 64 }

// TestPredictedBoxesKeepQueryAspect: an anisotropic query's predicted ranges
// keep its per-axis half-extents (inflated by PredictRadiusFactor), not a
// cube sized from the X axis; on step one the advance is the largest
// half-extent.
func TestPredictedBoxesKeepQueryAspect(t *testing.T) {
	half := geom.V(2, 10, 4)
	box := func(c geom.Vec) geom.AABB { return geom.AABB{Min: c.Sub(half), Max: c.Add(half)} }
	// One segment leaves the query through its +X face at (4, 10, 4).
	q := box(geom.V(2, 10, 4))
	seg := geom.Seg(geom.V(2, 10, 4), geom.V(6, 10, 4), 0.1)
	for _, tc := range []struct {
		name    string
		history []geom.AABB
		advance float64
	}{
		{"stride", []geom.AABB{box(geom.V(-6, 10, 4)), q}, 8},
		{"step one", []geom.AABB{q}, 10},
	} {
		var boxes []geom.AABB
		ctx := &prefetch.Context{
			Index:   boxRecorder{&boxes},
			Segment: func(int32) geom.Segment { return seg },
			History: tc.history,
		}
		New(Options{}).Predict(ctx, q, []int32{0}, 10)
		if len(boxes) != 2 {
			t.Fatalf("%s: %d predicted ranges, want 2 (one exit, two strides)", tc.name, len(boxes))
		}
		wantSize := half.Scale(2 * 1.3)
		for k, b := range boxes {
			if b.Size().Dist(wantSize) > 1e-9 {
				t.Errorf("%s: range %d is %v, want the query's aspect %v", tc.name, k, b.Size(), wantSize)
			}
			wantCenter := geom.V(4+float64(k+1)*tc.advance, 10, 4)
			if b.Center().Dist(wantCenter) > 1e-9 {
				t.Errorf("%s: range %d centered at %v, want %v", tc.name, k, b.Center(), wantCenter)
			}
		}
	}
}

// TestPredictBeyondOneMaskWindow: a step whose predicted ranges outnumber
// one PagesInRanges mask window (a star of 48 segments leaving the query,
// 96 ranges) takes the same pages as the oracle, whose per-range lookups
// know no windows, at budgets that stop in the first window, the second and
// not at all.
func TestPredictBeyondOneMaskWindow(t *testing.T) {
	center := geom.V(50, 50, 50)
	q := geom.BoxAround(center, 15)
	var segs []geom.Segment
	var items []rtree.Item
	for i := 0; i < 48; i++ {
		// Directions spread over the sphere (a golden-angle spiral).
		z := 1 - (float64(i)+0.5)/24
		r := math.Sqrt(1 - z*z)
		phi := float64(i) * 2.399963229728653
		tip := center.Add(geom.V(r*math.Cos(phi), r*math.Sin(phi), z).Scale(30))
		segs = append(segs, geom.Seg(center, tip, 0.5))
		items = append(items, rtree.Item{Box: segs[i].Bounds(), ID: int32(i)})
	}
	// Filler elements, so that the predicted ranges find pages.
	for x := 0.0; x <= 100; x += 4 {
		for y := 0.0; y <= 100; y += 4 {
			for z := 0.0; z <= 100; z += 4 {
				items = append(items, rtree.Item{Box: geom.BoxAround(geom.V(x, y, z), 1), ID: int32(len(items))})
			}
		}
	}
	idx, err := flat.Build(items, flat.Options{PageSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	result := make([]int32, len(segs))
	for i := range result {
		result[i] = int32(i)
	}
	ctx := &prefetch.Context{Index: idx, Segment: func(id int32) geom.Segment { return segs[id] }, History: []geom.AABB{q}}
	// The pages of all ranges, and of the first window's.
	all := len(newMapScout(Options{MaxPredictions: 200}).Predict(ctx, q, result, 1<<20))
	first := len(newMapScout(Options{MaxPredictions: pager.RangeWindow}).Predict(ctx, q, result, 1<<20))
	if first >= all {
		t.Fatalf("the second window adds no page (%d of %d)", first, all)
	}
	opts := Options{MaxPredictions: 200}
	for _, budget := range []int{10, (first + all) / 2, all + 1} {
		got := New(opts).Predict(ctx, q, result, budget)
		want := newMapScout(opts).Predict(ctx, q, result, budget)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("budget %d: pages %v, oracle %v", budget, got, want)
		}
	}
}
