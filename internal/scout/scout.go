// Package scout implements SCOUT (Tauheed et al., VLDB'12), the
// content-aware prefetcher §3 of the demonstrated paper presents.
//
// Location-only prefetchers extrapolate where the user will look next from
// where they looked before; on jagged neuron branches that straight line is
// wrong at every bend. SCOUT instead looks at *what the user is looking at*:
//
//  1. Skeleton reconstruction: while the result of query q is loaded, the
//     capsule segments in q are stitched into a graph by shared endpoints —
//     "SCOUT already starts to reconstruct the dominating structures/the
//     topological skeleton in q and approximates them with a graph" (§3.1).
//     The connected components of this graph are the structures in q.
//  2. Candidate pruning: the structure the user follows must appear in every
//     query of the sequence, so SCOUT intersects the structures present in
//     consecutive queries: "it thus only considers the intersection between
//     the structures leaving the (n−1)th query and the set of structures
//     entering the nth query" (§3.1, Figure 5). After a few steps a single
//     candidate remains.
//  3. Exit extrapolation: the graph is traversed "to find the locations
//     where its edges exit q. At the exit locations, the edges exiting are
//     extrapolated linearly to predict the next query locations", and the
//     pages of those predicted ranges are prefetched.
//
// All of this runs between two interactive steps, so a Scout keeps its
// working set — the union-find, an open-addressed joint table, the
// per-position structure labels, the ranked predictions, the page lookup's
// output and stamp arrays over element IDs (the candidate set) and pages —
// and reuses it across steps and walkthroughs. Stamps carry a generation, so
// clearing a table or a set is one increment. The predicted ranges of a step
// become pages in one PagesInRanges lookup. In steady state Predict allocates
// only the slice it returns. One Scout serves one walkthrough goroutine at a
// time, which its candidate state between steps already required.
package scout

import (
	"math"
	"math/bits"
	"slices"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/prefetch"
)

// Options tunes SCOUT; the zero value selects defaults.
type Options struct {
	// Tolerance is the endpoint-matching distance for skeleton
	// reconstruction: segment endpoints within it are considered the same
	// skeleton joint. Zero matches endpoints exactly (bit-equal), which is
	// lossless on this repository's datasets; positive values make the
	// reconstruction robust to resampled or noisy data.
	Tolerance float64
	// MaxPredictions caps how many exit extrapolations are converted into
	// prefetch ranges per step. Default 8 (each exit contributes two
	// lookahead boxes).
	MaxPredictions int
	// PredictRadiusFactor inflates the predicted range relative to the
	// query's per-axis half-extents, absorbing the bend deviation of jagged
	// branches between the exit point and the user's actual next position.
	// Default 1.3.
	PredictRadiusFactor float64
}

// Scout is the SCOUT prefetcher. It satisfies prefetch.Prefetcher and keeps
// the candidate set between the steps of one walkthrough; Reset clears it.
type Scout struct {
	opts Options
	// The elements of the structures that were candidates after the latest
	// step — the next step's pruning set and LastCandidateContains' answer —
	// are the element IDs whose cand stamp is candGen.
	cand    []uint32 // by element ID
	candGen uint32
	// lastCandidates is the candidate count after the latest Predict call,
	// exposed for the E3 pruning experiment.
	lastCandidates int

	// Per-step scratch, indexed by result position unless noted.
	segs   []geom.Segment
	parent []int32 // union-find forest
	label  []int32 // structure number, in order of first appearance
	joints jointTable
	kept   []bool  // by structure number: a candidate this step
	off    []int32 // by structure number: first slot of its exits in preds
	exits  []exitEdge
	preds  []ranked
	boxes  []geom.AABB       // the predicted ranges, best first
	hits   []pager.RangePage // their pages
	order  []pager.PageID    // one window's pages, best range first
	pages  []pager.PageID
	seen   []uint32 // by page: the gen of the step that took it
	gen    uint32
}

// New returns a Scout with the given options.
func New(opts Options) *Scout {
	if opts.MaxPredictions <= 0 {
		opts.MaxPredictions = 8
	}
	if opts.Tolerance < 0 {
		opts.Tolerance = 0
	}
	if opts.PredictRadiusFactor <= 0 {
		opts.PredictRadiusFactor = 1.3
	}
	return &Scout{opts: opts}
}

// Name implements prefetch.Prefetcher.
func (s *Scout) Name() string { return "scout" }

// Reset implements prefetch.Prefetcher.
func (s *Scout) Reset() {
	s.newCandidates()
	s.lastCandidates = 0
}

// LastCandidateCount returns the number of structures that remained
// candidates after the latest step — the series Figure 5 of the paper
// visualizes shrinking.
func (s *Scout) LastCandidateCount() int { return s.lastCandidates }

// LastCandidateContains reports whether the element id is part of any
// current candidate structure. The E3 experiment uses it with morphology
// ground truth to verify the followed branch is never pruned away.
func (s *Scout) LastCandidateContains(id int32) bool {
	return uint(id) < uint(len(s.cand)) && s.cand[id] == s.candGen
}

// newCandidates empties the candidate set for the stamps of a new one.
func (s *Scout) newCandidates() {
	if s.candGen++; s.candGen == 0 {
		clear(s.cand)
		s.candGen = 1
	}
}

// addCandidate stamps element id into the candidate set, growing the stamps
// to cover it. Element IDs index the circuit's elements, so the stamps are
// at most one word per element.
func (s *Scout) addCandidate(id int32) {
	if int(id) >= len(s.cand) {
		s.cand = slices.Grow(s.cand, int(id)+1-len(s.cand))
		s.cand = s.cand[:cap(s.cand)]
	}
	s.cand[id] = s.candGen
}

// exitEdge is a place where a structure's edge leaves the query box.
type exitEdge struct {
	point geom.Vec // boundary crossing
	dir   geom.Vec // unit direction of travel out of the box
	st    int32    // structure number
}

// ranked is one predicted range and the score that orders it.
type ranked struct {
	box   geom.AABB
	score float64
}

// byScore orders predictions best first. Only its sign for "a before b"
// matters to the stable sort, which makes the same comparisons as
// sort.SliceStable with the less function a.score > b.score.
func byScore(a, b ranked) int {
	if a.score > b.score {
		return -1
	}
	if b.score > a.score {
		return 1
	}
	return 0
}

// Predict implements prefetch.Prefetcher. It reads result only during the
// call: the candidate set it keeps is a copy.
func (s *Scout) Predict(ctx *prefetch.Context, q geom.AABB, result []int32, budget int) []pager.PageID {
	n := s.reconstruct(ctx, result)

	// Candidate pruning against the previous step: a structure stays if it
	// shares an element with a previous candidate. An empty intersection
	// means the user jumped (or there was no previous candidate); fall back
	// to all structures rather than prefetching nothing forever.
	s.kept = grow(s.kept, n)
	clear(s.kept)
	kept := 0
	for i, id := range result {
		if st := s.label[i]; !s.kept[st] && s.LastCandidateContains(id) {
			s.kept[st] = true
			kept++
		}
	}
	if kept == 0 {
		for st := range s.kept {
			s.kept[st] = true
		}
		kept = n
	}
	s.lastCandidates = kept
	s.newCandidates()
	for i, id := range result {
		if s.kept[s.label[i]] {
			s.addCandidate(id)
		}
	}
	if budget <= 0 {
		return nil
	}

	// Exit extrapolation. The predicted ranges keep the query's per-axis
	// half-extents; the advance distance is the observed stride of the
	// sequence (falling back to the largest half-extent on step one).
	half := q.Size().Scale(0.5)
	r := half.Scale(s.opts.PredictRadiusFactor)
	advance := max(half.X, half.Y, half.Z)
	if h := len(ctx.History); h >= 2 {
		if stride := ctx.History[h-1].Center().Dist(ctx.History[h-2].Center()); stride != 0 {
			advance = stride
		}
	}
	// Direction of recent travel, used to rank exits: the exit most aligned
	// with how the user has been moving is the most likely continuation.
	var travel geom.Vec
	if h := len(ctx.History); h >= 2 {
		travel = ctx.History[h-1].Center().Sub(ctx.History[h-2].Center()).Normalize()
	}

	// The candidates' exits, grouped by structure number and in result
	// order within a structure: the order the stable sort breaks ties by.
	s.exits = s.exits[:0]
	s.off = grow(s.off, n+1)
	clear(s.off)
	for i := range result {
		if st := s.label[i]; s.kept[st] {
			if ex, ok := exitOf(s.segs[i], q); ok {
				ex.st = st
				s.exits = append(s.exits, ex)
				s.off[st+1]++
			}
		}
	}
	for st := 1; st <= n; st++ {
		s.off[st] += s.off[st-1]
	}
	s.preds = grow(s.preds, 2*len(s.exits))
	for _, ex := range s.exits {
		score := ex.dir.Dot(travel)
		j := 2 * s.off[ex.st]
		s.off[ex.st]++
		// Extrapolate one and two strides out: the second box covers the
		// query after next, so by the time the user arrives its pages have
		// had a full think time to load.
		one := ex.point.Add(ex.dir.Scale(advance))
		s.preds[j] = ranked{box: geom.AABB{Min: one.Sub(r), Max: one.Add(r)}, score: score}
		two := ex.point.Add(ex.dir.Scale(2 * advance))
		s.preds[j+1] = ranked{box: geom.AABB{Min: two.Sub(r), Max: two.Add(r)}, score: score - 0.01}
	}
	slices.SortStableFunc(s.preds, byScore)
	s.boxes = s.boxes[:0]
	for _, pr := range s.preds[:min(len(s.preds), s.opts.MaxPredictions)] {
		s.boxes = append(s.boxes, pr.box)
	}
	if len(s.boxes) == 0 {
		return nil
	}

	// Convert the predicted ranges to pages, best range first and each
	// range's pages in its query's order, each page once: one lookup names
	// every range's pages, and a page is taken when its stamp is not this
	// step's generation.
	s.hits = ctx.Index.PagesInRanges(s.hits[:0], s.boxes)
	if np := ctx.Index.NumPages(); len(s.seen) < np {
		s.seen = make([]uint32, np)
	}
	if s.gen++; s.gen == 0 {
		clear(s.seen)
		s.gen = 1
	}
	s.pages = s.pages[:0]
	for hits := s.hits; len(hits) > 0 && len(s.pages) < budget; {
		n := 1
		for n < len(hits) && hits[n].Window == hits[0].Window {
			n++
		}
		s.take(hits[:n], budget)
		hits = hits[n:]
	}
	if len(s.pages) == 0 {
		return nil
	}
	return slices.Clone(s.pages)
}

// take appends the pages of one window's hits to s.pages until the budget is
// reached, best range first. A page not taken by an earlier window belongs to
// the first range that reads it, the lowest bit of its mask; a counting sort
// by that range keeps each range's pages in lookup order, which is its query's
// order.
func (s *Scout) take(hits []pager.RangePage, budget int) {
	var start [pager.RangeWindow + 1]int32
	for _, h := range hits {
		start[bits.TrailingZeros64(h.Mask)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	s.order = grow(s.order, len(hits))
	for _, h := range hits {
		b := bits.TrailingZeros64(h.Mask)
		s.order[start[b]] = h.Page
		start[b]++
	}
	for _, pg := range s.order {
		if s.seen[pg] != s.gen {
			s.seen[pg] = s.gen
			s.pages = append(s.pages, pg)
			if len(s.pages) >= budget {
				return
			}
		}
	}
}

// reconstruct stitches the result segments into skeleton structures: it
// labels every result position with its structure's number, numbering
// structures in the order their first element appears in result, and
// returns how many there are.
func (s *Scout) reconstruct(ctx *prefetch.Context, result []int32) int {
	n := len(result)
	s.segs = grow(s.segs, n)
	s.parent = grow(s.parent, n)
	s.label = grow(s.label, n)
	// Union-find over result positions, keyed by quantized endpoints.
	// The segments are fetched in a loop of their own: the fetches are
	// independent, so their cache misses overlap.
	for i, id := range result {
		s.segs[i] = ctx.Segment(id)
	}
	s.joints.reset(2 * n)
	for i := range s.segs {
		s.parent[i] = int32(i)
		s.register(int32(i), s.segs[i].A)
		s.register(int32(i), s.segs[i].B)
	}
	// Every position's root first; then the roots are numbered in order of
	// first appearance, the number stored in the root's parent slot as its
	// complement (a root's slot is free once every position knows it).
	for i := range result {
		s.label[i] = s.find(int32(i))
	}
	structures := int32(0)
	for i := range result {
		r := s.label[i]
		if s.parent[r] >= 0 {
			s.parent[r] = ^structures
			structures++
		}
		s.label[i] = ^s.parent[r]
	}
	return int(structures)
}

// register joins position i to the first position that registered the
// joint at p, or registers it.
func (s *Scout) register(i int32, p geom.Vec) {
	if j := s.joints.first(s.quantize(p), i); j != i {
		if ri, rj := s.find(i), s.find(j); ri != rj {
			s.parent[ri] = rj
		}
	}
}

// find returns x's root, halving the path on the way.
func (s *Scout) find(x int32) int32 {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

// jointTable maps the joint keys of one step to the first result position
// that registered them. The step's joints are kept densely, in order of
// registration; an open-addressed, linearly probed slot array indexes them.
// A slot holds its generation in the high word and a joint's index in the
// low one, and belongs to the current step when the generation is the
// table's, so a step starts empty with one increment.
type jointTable struct {
	slots  []uint64
	joints []joint
	shift  uint8 // 64 - log2(len(slots))
	gen    uint32
}

type joint struct {
	key [3]int64
	pos int32 // the result position that registered it
}

// reset empties the table for up to n keys, keeping it at most half full.
func (t *jointTable) reset(n int) {
	if size := 2 * max(n, 4); len(t.slots) < size {
		logSize := bits.Len(uint(size - 1))
		t.slots = make([]uint64, 1<<logSize)
		t.shift = uint8(64 - logSize)
		t.gen = 0
	}
	if t.gen++; t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
	t.joints = t.joints[:0]
}

// first returns the position registered for key k, registering i for it
// when there is none.
func (t *jointTable) first(k [3]int64, i int32) int32 {
	h := (uint64(k[0]) ^ bits.RotateLeft64(uint64(k[1]), 21) ^ bits.RotateLeft64(uint64(k[2]), 42)) * 0x9e3779b97f4a7c15
	mask := len(t.slots) - 1
	for j := int(h >> t.shift); ; j = (j + 1) & mask {
		sl := t.slots[j]
		if uint32(sl>>32) != t.gen {
			t.slots[j] = uint64(t.gen)<<32 | uint64(len(t.joints))
			t.joints = append(t.joints, joint{key: k, pos: i})
			return i
		}
		if jt := &t.joints[uint32(sl)]; jt.key == k {
			return jt.pos
		}
	}
}

// grow returns buf resized to n, reallocating only when its capacity is
// short. The contents are not preserved.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// quantize maps a point to its joint key. Tolerance zero keys on exact
// coordinates.
func (s *Scout) quantize(p geom.Vec) [3]int64 {
	if s.opts.Tolerance == 0 {
		return [3]int64{
			int64(math.Float64bits(p.X)),
			int64(math.Float64bits(p.Y)),
			int64(math.Float64bits(p.Z)),
		}
	}
	t := s.opts.Tolerance
	return [3]int64{
		int64(math.Round(p.X / t)),
		int64(math.Round(p.Y / t)),
		int64(math.Round(p.Z / t)),
	}
}

// exitOf returns the boundary crossing of a segment leaving the box, if any:
// the point where the segment's axis exits q and the unit direction of
// travel at that point.
func exitOf(seg geom.Segment, q geom.AABB) (exitEdge, bool) {
	aIn := q.Contains(seg.A)
	bIn := q.Contains(seg.B)
	switch {
	case aIn && bIn:
		return exitEdge{}, false
	case aIn && !bIn:
		p := crossing(seg, q)
		return exitEdge{point: p, dir: seg.B.Sub(seg.A).Normalize()}, true
	case !aIn && bIn:
		p := crossing(geom.Seg(seg.B, seg.A, seg.Radius), q)
		return exitEdge{point: p, dir: seg.A.Sub(seg.B).Normalize()}, true
	default:
		// Both endpoints outside: the segment clips a corner or only its
		// radius grazes the box — treat the far endpoint direction as the
		// exit when the axis truly crosses.
		if t0, t1, ok := seg.ClipParamRange(q); ok && t1 > t0 {
			return exitEdge{point: seg.PointAt(t1), dir: seg.B.Sub(seg.A).Normalize()}, true
		}
		return exitEdge{}, false
	}
}

// crossing returns the point where a segment whose A endpoint is inside q
// first leaves the box.
func crossing(seg geom.Segment, q geom.AABB) geom.Vec {
	if _, t1, ok := seg.ClipParamRange(q); ok {
		return seg.PointAt(t1)
	}
	return seg.A
}
