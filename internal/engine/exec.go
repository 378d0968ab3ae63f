package engine

import (
	"context"
	"math"
	"slices"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// This file holds the shared execution machinery of the Request surface: the
// contender interface and the one eager executor above it — its scan arm, its
// best-first kNN search and the page slice of a paginated request — the
// canonical hit-ordering helpers, and the bound-tightening top-k accumulator
// the search gathers into.

// traverser is what the executor runs: the native range traversal of one
// item set and the hierarchy its kNN search descends, under the SpatialIndex
// face. The four contenders implement it over their own pages; a snapshot
// view implements it over its base contender (snapshot.go), and execute lays
// the snapshot's overlay on top. Page reads resolve their source per call
// (see pickSource) and check ctx first, returning its error — cancellation is
// an ordinary error on every path, never a panic.
//
//   - scan is the native range traversal: it appends to out the ID of every
//     item whose box intersects queryBox(req), in the contender's emission
//     order (FLAT's page order, the R-tree's descent order, the grid's
//     cell-major order, ascending global ID for Sharded), reading pages
//     through src when it is non-nil. Exact refinement of WithinDistance and
//     the canonical sort are the executor's. PagedQuery is scan with the
//     pool as src; Do is scan plus the canonical sort, and a page of a
//     paginated Do is a slice of that (executePage).
//   - knnExpand is the hierarchy adapter of the one kNN search (executeKNN):
//     it expands frontier entry e of search s — pushes what lies beneath it
//     with lower distance bounds (s.push), or reads its page (s.read) and
//     offers the residents (s.offer). e.ref == knnRoot asks for the
//     contender's top-level entries; every other ref is one the contender
//     pushed itself. The search, the pruning and the overlay are execute's.
type traverser interface {
	SpatialIndex
	scan(ctx context.Context, req Request, src pager.PageSource, out *idCollector) (QueryStats, error)
	knnExpand(s *knnSearch, e knnEntry) error
	// itemBoxes returns the exact-geometry accessor by the IDs scan emits
	// (read from the contender's coordinate sidecar).
	itemBoxes() func(int32) geom.AABB
}

// contender is the engine-internal face of the four index contenders (Flat,
// RTree, Grid, Sharded): the traversals and the storage surface.
type contender interface {
	Paged
	traverser
	// PagesInRanges is the contender's prefetch.PageGeometry lookup of many
	// ranges' pages at once; Paged's PagesInRange is a one-range call of it.
	PagesInRanges(dst []pager.RangePage, boxes []geom.AABB) []pager.RangePage
}

// pickSource resolves where one traversal reads its pages: the source passed
// for this call (PagedQuery's pool), else the attached one — unless the
// request reads cold, as a planner's calibration probe does so that planning
// never warms or counts against a pool under measurement. nil means the
// index's own store. The choice is a property of the call, so nothing on the
// index is rewired and concurrent calls cannot observe each other's.
func pickSource(req Request, passed, attached pager.PageSource) pager.PageSource {
	if passed != nil {
		return passed
	}
	if req.cold {
		return nil
	}
	return attached
}

// queryBox is the traversal box of an ascending-ID kind: the range box
// itself, the degenerate stab box of Point, the bounding box of the
// WithinDistance sphere.
func queryBox(req Request) geom.AABB {
	switch req.Kind {
	case Point:
		return geom.Box(req.Center, req.Center)
	case WithinDistance:
		return geom.BoxAround(req.Center, req.Radius)
	}
	return req.Box
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// admit is the front every Do shares: a malformed request is refused with its
// *RequestError and a dead context with its error before any work is done; a
// nil ctx reads as context.Background and a nil visit discards hits.
func admit(ctx context.Context, req Request, visit func(Hit)) (context.Context, func(Hit), error) {
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if visit == nil {
		visit = discardHit
	}
	return ctx, visit, ctx.Err()
}

func discardHit(Hit) {}

// execute is the eager executor behind every Do — a raw contender's (ov nil)
// and a snapshot view's (ov the snapshot, ix the view over its base): run the
// kind's traversal and emit its hits in canonical order — all or nothing: an
// error from the traversal means visit was never called. A paginated request
// is executePage's slice of that same execution.
//
// KNN is executeKNN's best-first search over the contender's hierarchy. The
// scan arm (Range, Point, WithinDistance) is collect → sort → refine →
// emit, once: scan gathers into the pooled collector, the IDs are sorted, and
// one pass refines WithinDistance exactly and emits. Under an overlay that
// same pass first drops the IDs the snapshot's bitset marks dead, refines
// against the base's own boxes while the IDs are still base-local, translates
// through baseIDs (ascending, so the order survives), and two-way merges with
// the hits of the delta chunks whose MBRs admit the request (deltaIter) — base
// and delta IDs are disjoint, an updated item being dead in the base. The
// overlay's share is O(answer + touched delta): at an empty overlay over
// identity baseIDs a view's Do is its base's, hit for hit and stat for stat.
func execute(ctx context.Context, ix traverser, ov *Snapshot, req Request, visit func(Hit)) (QueryStats, error) {
	ctx, visit, err := admit(ctx, req, visit)
	if err != nil {
		return QueryStats{}, err
	}
	if ix.NumItems() == 0 {
		return QueryStats{}, nil
	}
	if req.paginated() {
		return executePage(ctx, ix, ov, req, visit)
	}
	if req.Kind == KNN {
		return executeKNN(ctx, ix, ov, req, visit)
	}
	col := getIDCollector()
	defer putIDCollector(col)
	st, err := ix.scan(ctx, req, nil, col)
	if err != nil {
		return QueryStats{}, err
	}
	// Nothing below can fail, so emission may begin.
	slices.Sort(col.ids)
	var delta []Hit
	if ov != nil && len(ov.chunks) > 0 {
		buf := getHits()
		defer putHits(buf)
		d := newDeltaIter(ov.chunks, req)
		for h, ok := d.Next(); ok; h, ok = d.Next() {
			*buf = append(*buf, h)
		}
		st.DeltaEntries = d.entries
		delta = *buf
	}
	within, r2 := req.Kind == WithinDistance, req.Radius*req.Radius
	boxOf := ix.itemBoxes()
	st.Results = int64(len(delta))
	for _, id := range col.ids {
		if ov != nil && ov.dead(id) {
			st.Tombstones++
			continue
		}
		h := Hit{ID: id}
		if within {
			st.EntriesTested++
			if h.Dist2 = boxOf(id).Dist2Point(req.Center); h.Dist2 > r2 {
				continue
			}
		}
		if ov != nil {
			h.ID = ov.baseIDs[id]
			for len(delta) > 0 && delta[0].ID < h.ID {
				visit(delta[0])
				delta = delta[1:]
			}
		}
		st.Results++
		visit(h)
	}
	for _, h := range delta {
		visit(h)
	}
	return st, nil
}

// executePage serves a paginated request from the eager executor: the request
// runs once with its pagination fields cleared, into a pooled buffer, and the
// page is the slice of those hits strictly after the Cursor position, past
// Offset, at most Limit long. A page therefore reads what its full query
// reads, and its record is the full execution's with Results the page's
// length. Emission starts only once the execution has returned cleanly.
func executePage(ctx context.Context, ix traverser, ov *Snapshot, req Request, visit func(Hit)) (QueryStats, error) {
	full := req
	full.Limit, full.Offset, full.Cursor = 0, 0, ""
	buf := getHits()
	defer putHits(buf)
	st, err := execute(ctx, ix, ov, full, func(h Hit) { *buf = append(*buf, h) })
	if err != nil {
		return QueryStats{}, err
	}
	hits := *buf
	if req.Cursor != "" {
		_, after, _ := req.Cursor.decode() // Validate has checked it
		hits = skipThrough(hits, req.Kind, after)
	}
	hits = hits[min(req.Offset, len(hits)):]
	if req.Limit > 0 && req.Limit < len(hits) {
		hits = hits[:req.Limit]
	}
	st.Results = int64(len(hits))
	for _, h := range hits {
		visit(h)
	}
	return st, nil
}

// pagedQuery is every contender's PagedQuery: the native scan of q reading
// through pool, IDs visited in emission order. A walkthrough's context is
// never canceled and a box that fails validation has no hits, so there is no
// error to report; the pool's counters are the record.
func pagedQuery(ix contender, q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	req := RangeRequest(q)
	if ix.NumItems() == 0 || req.Validate() != nil {
		return
	}
	var src pager.PageSource // stays nil for a nil pool: the attached source, else the store
	if pool != nil {
		src = pool
	}
	col := getIDCollector()
	defer putIDCollector(col)
	if _, err := ix.scan(context.Background(), req, src, col); err != nil {
		return
	}
	for _, id := range col.ids {
		visit(id)
	}
}

// knnRoot is the frontier reference the search starts from: expanding it
// pushes a contender's top-level entries. It is ^0 so that a contender whose
// directory nodes are refs ^i can let its node 0 be the root.
const knnRoot = ^0

// knnEntry is one element of the kNN frontier: d2 is a lower bound on the
// squared distance of every item beneath it; ref names what to expand, in the
// contender's own encoding (a directory node, a ring, a cell, a page); shard is
// the shard that pushed it (-1 when the index is not sharded).
type knnEntry struct {
	d2    float64
	ref   int32
	shard int32
}

// knnSearch is the pooled state of one kNN execution: the frontier (a min-heap
// by lower bound), the top-k accumulator, the record, and what the contenders'
// knnExpand needs from the call — the context, the request, the overlay.
type knnSearch struct {
	ctx      context.Context
	req      Request
	ov       *Snapshot // nil on a raw contender
	st       QueryStats
	acc      knnAcc
	frontier []knnEntry
	// seen is the set of pages read so far, for a contender whose entries
	// share pages (the grid's cells).
	seen pageSet
	// shard, global and pageBase are Sharded's: the shard whose sub-index is
	// expanding (stamped on what it pushes), its local → global ID map, and
	// its first page in the global page space (which keys seen).
	shard    int32
	global   []int32
	pageBase pager.PageID
}

// executeKNN is the kNN arm of execute, the one best-first search (Hjaltason
// & Samet) every contender and view answers through: pop the frontier entry
// with the least lower bound, let the contender expand it, and stop once that
// bound is strictly greater than the k-th best distance so far — an entry
// *at* the k-th distance is still expanded, so (Dist2, ID) ties are decided in
// this one pass. Work is bounded by the answer's neighbourhood, not the item
// count. Under an overlay, offer drops tombstoned residents before they reach
// the accumulator and translates the live ones, and the delta chunks the
// accumulator's bound still admits are offered last.
func executeKNN(ctx context.Context, ix traverser, ov *Snapshot, req Request, visit func(Hit)) (QueryStats, error) {
	s := getKNNSearch(ctx, req, ov)
	defer putKNNSearch(s)
	e, ok := knnEntry{ref: knnRoot, shard: -1}, true
	for ; ok; e, ok = s.pop() {
		if err := ix.knnExpand(s, e); err != nil {
			return QueryStats{}, err
		}
	}
	if ov != nil {
		d := newDeltaIter(ov.chunks, req)
		for {
			d.pred.r2 = s.acc.Bound() // ties are kept; the accumulator breaks them by ID
			h, ok := d.Next()
			if !ok {
				break
			}
			s.acc.Offer(h)
		}
		s.st.DeltaEntries = d.entries
	}
	// Nothing above can fail any more, so emission may begin.
	hits := s.acc.Hits()
	s.st.Results = int64(len(hits))
	for _, h := range hits {
		visit(h)
	}
	return s.st, nil
}

// push adds an entry to the frontier unless the accumulator's bound already
// rules it out (the bound only tightens).
func (s *knnSearch) push(d2 float64, ref int32) {
	if d2 > s.acc.Bound() {
		return
	}
	h := append(s.frontier, knnEntry{d2, ref, s.shard})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].d2 <= h[i].d2 {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.frontier = h
}

// pop removes the nearest frontier entry; ok is false when the frontier is
// empty or nothing on it can still improve the answer.
func (s *knnSearch) pop() (top knnEntry, ok bool) {
	h := s.frontier
	if len(h) == 0 || h[0].d2 > s.acc.Bound() {
		return knnEntry{}, false
	}
	top = h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h[l].d2 < h[least].d2 {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].d2 < h[least].d2 {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	s.frontier = h
	return top, true
}

// read is the search's one page read: ctx is checked first, and the read is
// counted once as PagesRead.
func (s *knnSearch) read(src pager.PageSource, p pager.PageID) ([]int32, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	s.st.PagesRead++
	return src.ReadPage(p), nil
}

// offerPage offers every resident of page p, as read, at its distance read
// from the page's coordinate sidecar.
func (s *knnSearch) offerPage(coords *pager.Coords, p pager.PageID, ids []int32) {
	base := coords.PageOffset(p)
	for i, id := range ids {
		s.offer(id, coords.Dist2At(base+i, s.req.Center))
	}
}

// offer considers one resident of a page just read: id in the expanding
// contender's ID space, d2 its exact squared distance from the center. A
// shard's local ID becomes the index's; under an overlay a tombstoned item is
// dropped and a live one takes its dataset ID.
func (s *knnSearch) offer(id int32, d2 float64) {
	s.st.EntriesTested++
	if s.global != nil {
		id = s.global[id]
	}
	if s.ov != nil {
		if s.ov.dead(id) {
			s.st.Tombstones++
			return
		}
		id = s.ov.baseIDs[id]
	}
	s.acc.Offer(Hit{ID: id, Dist2: d2})
}

// hitWorse is the shared kNN total order: x is worse than y when it is
// farther, ties broken by larger ID. Every contender selects and emits by
// this order, which is what makes kNN results identical across indexes,
// shard counts and worker counts even with tied distances.
func hitWorse(x, y Hit) bool {
	if x.Dist2 != y.Dist2 {
		return x.Dist2 > y.Dist2
	}
	return x.ID > y.ID
}

// knnAcc maintains the k best (Dist2, ID) hits offered so far: a bounded
// max-heap whose root is the current worst kept hit. Bound() exposes the
// tightening pruning bound the best-first search compares its frontier's
// lower bounds against.
type knnAcc struct {
	k int
	h []Hit // max-heap by hitWorse; h[0] is the worst kept hit
}

// Full reports whether k hits are held.
func (a *knnAcc) Full() bool { return len(a.h) >= a.k }

// Bound returns the pruning bound: a candidate source whose lower distance
// bound exceeds it cannot contribute. +Inf until the accumulator is full.
func (a *knnAcc) Bound() float64 {
	if !a.Full() {
		return math.Inf(1)
	}
	return a.h[0].Dist2
}

// Offer considers one candidate.
func (a *knnAcc) Offer(h Hit) {
	if len(a.h) < a.k {
		a.h = append(a.h, h)
		a.up(len(a.h) - 1)
		return
	}
	if !hitWorse(a.h[0], h) {
		return
	}
	a.h[0] = h
	a.down(0)
}

func (a *knnAcc) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !hitWorse(a.h[i], a.h[p]) {
			return
		}
		a.h[i], a.h[p] = a.h[p], a.h[i]
		i = p
	}
}

func (a *knnAcc) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(a.h) && hitWorse(a.h[l], a.h[worst]) {
			worst = l
		}
		if r < len(a.h) && hitWorse(a.h[r], a.h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		a.h[i], a.h[worst] = a.h[worst], a.h[i]
		i = worst
	}
}

// cmpHit orders hits canonically: ascending Dist2, ties by ascending ID
// (the slices.SortFunc form of hitWorse).
func cmpHit(x, y Hit) int {
	switch {
	case x.Dist2 < y.Dist2:
		return -1
	case x.Dist2 > y.Dist2:
		return 1
	case x.ID < y.ID:
		return -1
	case x.ID > y.ID:
		return 1
	}
	return 0
}

// Hits returns the kept hits in canonical order (ascending Dist2, ties by
// ascending ID). The accumulator must not be offered to afterwards; it is
// pooled with its search, so the hits are copied out (visit emits by value)
// before release.
func (a *knnAcc) Hits() []Hit {
	slices.SortFunc(a.h, cmpHit)
	return a.h
}
