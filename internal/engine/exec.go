package engine

import (
	"context"
	"math"
	"slices"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// This file holds the shared execution machinery of the Request surface:
// page-read-granular context cancellation, the canonical hit-ordering
// helpers, and the bound-tightening top-k accumulator every kNN
// implementation gathers through.

// cancelable reports whether ctx can ever be canceled; background and nil
// contexts skip the per-page check entirely.
func cancelable(ctx context.Context) bool { return ctx != nil && ctx.Done() != nil }

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// canceledRead aborts an in-flight index traversal from inside a page read:
// the deep recursive query paths (FLAT's crawl, the R-tree descent) have no
// error channel, so ctxSource panics with this sentinel and catchCancel —
// always on the same goroutine, installed by the Do implementation — turns
// it back into the context's error.
type canceledRead struct{ err error }

// ctxSource wraps a PageSource with a cancellation check on every page read —
// the promised page-read granularity: a canceled batch stops at the next
// page, not the next query.
type ctxSource struct {
	ctx context.Context
	src pager.PageSource
}

// ReadPage implements pager.PageSource.
func (c *ctxSource) ReadPage(p pager.PageID) []int32 {
	if err := c.ctx.Err(); err != nil {
		panic(canceledRead{err})
	}
	return c.src.ReadPage(p)
}

// wrapCtxSource routes src through a per-page cancellation check when ctx is
// cancelable; otherwise src is returned unwrapped (no per-read overhead on
// background contexts).
func wrapCtxSource(ctx context.Context, src pager.PageSource) pager.PageSource {
	if !cancelable(ctx) {
		return src
	}
	return &ctxSource{ctx: ctx, src: src}
}

// catchCancel runs fn, converting a canceledRead panic from a ctxSource
// below it into the context's error. Any other panic propagates.
//
// Invariant (audited): a canceledRead panic is only recoverable on the
// goroutine that raised it, so every ctxSource read must happen under a
// catchCancel installed on the same goroutine. The engine upholds this in
// two ways: each Do implementation wraps its own traversal (rangeIDs in the
// flat/rtree/grid wrappers — the worker goroutine running a batch slot runs
// both the traversal and its catchCancel), and Session.DoBatch installs a
// second, defense-in-depth catchCancel around each slot's whole execution on
// the worker goroutine. The kNN scans and the lazy iterators use explicit
// ctxErr checks before each page read instead of the panic machinery —
// pull-based Next calls cannot sit under one catchCancel frame. No Do path
// spawns goroutines of its own (the sharded scatter is serial), so a panic
// never crosses a goroutine boundary.
func catchCancel(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(canceledRead)
			if !ok {
				panic(r)
			}
			err = c.err
		}
	}()
	fn()
	return nil
}

// emitIDHits sorts ids ascending in place and emits them as zero-distance
// hits — the canonical order of the boolean kinds (Range, Point).
//
//neurospatial:hotpath
func emitIDHits(ids []int32, visit func(Hit)) {
	slices.Sort(ids)
	for _, id := range ids {
		visit(Hit{ID: id})
	}
}

// withinRefine sorts the candidate ids ascending, applies the exact
// Dist2Point sphere test, and emits the surviving hits with their distances —
// the shared refinement of every WithinDistance implementation. It returns
// the number of hits emitted and the number of exact tests performed.
//
//neurospatial:hotpath
func withinRefine(ids []int32, boxOf func(int32) geom.AABB, center geom.Vec,
	radius float64, visit func(Hit)) (results, tested int64) {

	slices.Sort(ids)
	r2 := radius * radius
	for _, id := range ids {
		tested++
		if d2 := boxOf(id).Dist2Point(center); d2 <= r2 {
			results++
			visit(Hit{ID: id, Dist2: d2})
		}
	}
	return results, tested
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
//
//neurospatial:hotpath
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
//
//neurospatial:hotpath
func (a *knnAcc) Hits() []Hit {
	slices.SortFunc(a.h, cmpHit)
	return a.h
}
