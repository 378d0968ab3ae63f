package engine

import (
	"context"
	"math"
	"slices"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// This file holds the shared execution machinery of the Request surface: the
// contender interface and the one eager executor above it, the canonical
// hit-ordering helpers, and the bound-tightening top-k accumulator every kNN
// implementation gathers through.

// traverser is what the eager executor runs: the two eager traversals of one
// item set, under the SpatialIndex face pagination streams through. The four
// contenders implement it over their own pages; a snapshot view implements it
// over its base contender (snapshot.go), and execute lays the snapshot's
// overlay on top. Each traversal resolves its page source per call (see
// pickSource) and checks ctx before every page read, returning its error —
// cancellation is an ordinary error on every path, never a panic.
//
//   - scan is the native range traversal: it appends to out the ID of every
//     item whose box intersects queryBox(req), in the contender's emission
//     order (FLAT's crawl order, the R-tree's descent order, the grid's
//     cell-major order, ascending global ID for Sharded), reading pages
//     through src when it is non-nil. Exact refinement of WithinDistance and
//     the canonical sort are the executor's. PagedQuery is scan with the
//     pool as src; Do is scan plus the canonical sort.
//   - doKNN is the bounded best-first k-nearest-neighbors scan.
type traverser interface {
	SpatialIndex
	scan(ctx context.Context, req Request, src pager.PageSource, out *idCollector) (QueryStats, error)
	doKNN(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error)
	// itemBoxes returns the exact-geometry accessor by the IDs scan emits
	// (RAM-resident).
	itemBoxes() func(int32) geom.AABB
}

// contender is the engine-internal face of the four index contenders (Flat,
// RTree, Grid, Sharded): the eager traversals, the storage surface, and
// iterate (streamer) — the lazy ascending-ID stream behind Stream and
// paginated Do.
type contender interface {
	Paged
	streamer
	traverser
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

// cancelable reports whether ctx can ever be canceled; the R-tree's range
// scan takes its RAM descent when it cannot (and no source is attached).
func cancelable(ctx context.Context) bool { return ctx != nil && ctx.Done() != nil }

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
// and a snapshot view's (ov the snapshot, ix the view over its base): serve a
// paginated request through the lazy pipeline, and otherwise run the kind's
// traversal and emit its hits in canonical order — all or nothing: an error
// from the traversal means visit was never called.
//
// The scan arm (Range, Point, WithinDistance) is collect → sort → refine →
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
		return doPaginated(ctx, ix, req, visit)
	}
	if req.Kind == KNN {
		return ix.doKNN(ctx, req, visit)
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
		d := newDeltaIter(ov.chunks, req, nil)
		for h, ok := d.Next(); ok; h, ok = d.Next() {
			*buf = append(*buf, h)
		}
		st.DeltaEntries = d.st.DeltaEntries
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
// tightening pruning bound the best-first scans (and the sharded gather)
// compare page/cell/shard lower bounds against.
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

// cmpHitID orders hits by ascending ID alone — the canonical order of the
// boolean kinds, where every Dist2 is zero (Range, Point) or irrelevant to
// ordering (WithinDistance).
func cmpHitID(x, y Hit) int {
	switch {
	case x.ID < y.ID:
		return -1
	case x.ID > y.ID:
		return 1
	}
	return 0
}

// Hits returns the kept hits in canonical order (ascending Dist2, ties by
// ascending ID). The accumulator must not be offered to afterwards; when the
// accumulator is pooled, callers must copy the hits out (visit emits by
// value) before releasing it.
func (a *knnAcc) Hits() []Hit {
	slices.SortFunc(a.h, cmpHit)
	return a.h
}
