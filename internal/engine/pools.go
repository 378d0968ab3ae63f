package engine

import (
	"context"
	"sync"
)

// This file holds the sync.Pool-backed scratch of the Do hot path. The
// pooling discipline, uniform across the engine:
//
//   - get* returns a reset object (len 0 / zeroed fields), put* recycles it;
//     callers release with defer immediately after acquiring, so every exit
//     path — normal return, request error, cancellation — returns the object
//     exactly once.
//   - Pooled memory never escapes into results. Hits are emitted by value
//     through visit callbacks and Result.Hits/iterator buffers are always
//     freshly owned by the caller, so recycling cannot alias live data.
//   - Pools are package-global: a Session, a raw index Do, and concurrent
//     goroutines all share them safely (sync.Pool is concurrency-safe and
//     per-P, so the steady state is one scratch set per core, not per call).

// idCollector is a pooled candidate-ID gather buffer with a visit closure
// pre-bound at pool-construction time: creating a fresh `func(id int32)`
// closure per query is itself a heap allocation, so the closure is built once
// per pooled object and appends into the object's (growing, reused) slice.
type idCollector struct {
	ids   []int32
	visit func(int32)
}

var idCollectorPool = sync.Pool{New: func() any {
	c := &idCollector{ids: make([]int32, 0, 256)}
	c.visit = func(id int32) { c.ids = append(c.ids, id) }
	return c
}}

// getIDCollector returns an empty pooled collector.
func getIDCollector() *idCollector {
	c := idCollectorPool.Get().(*idCollector)
	c.ids = c.ids[:0]
	return c
}

// putIDCollector recycles a collector (the grown capacity is what makes the
// steady state alloc-free).
func putIDCollector(c *idCollector) { idCollectorPool.Put(c) }

var knnSearchPool = sync.Pool{New: func() any { return &knnSearch{} }}

// getKNNSearch returns a pooled kNN search reset for one execution: empty
// frontier, accumulator and page set, a zero record, no shard expanding.
func getKNNSearch(ctx context.Context, req Request, ov *Snapshot) *knnSearch {
	s := knnSearchPool.Get().(*knnSearch)
	s.ctx, s.req, s.ov, s.st = ctx, req, ov, QueryStats{}
	s.acc.k, s.acc.h = req.K, s.acc.h[:0]
	s.frontier = s.frontier[:0]
	s.seen.reset()
	s.shard, s.global, s.pageBase = -1, nil, 0
	return s
}

// putKNNSearch recycles a search, dropping what would pin a context, a
// snapshot or a shard's ID map alive. Safe after Hits(): hits are copied out
// by value before release.
func putKNNSearch(s *knnSearch) {
	s.ctx, s.ov, s.global = nil, nil, nil
	knnSearchPool.Put(s)
}

var hitsPool = sync.Pool{New: func() any { s := make([]Hit, 0, 256); return &s }}

// getHits returns an empty pooled []Hit gather buffer.
func getHits() *[]Hit { return hitsPool.Get().(*[]Hit) }

// putHits recycles a gather buffer.
func putHits(p *[]Hit) { *p = (*p)[:0]; hitsPool.Put(p) }

// pageSet is a stamped set of page IDs that grows to the largest page it is
// asked about, so a search need not know its page space up front.
type pageSet struct {
	// seen[p] == stamp marks page p visited since the last reset; bumping
	// stamp clears the set in O(1). A zeroed slot must not read as marked, so
	// stamp starts at 1 and the slots are re-zeroed on wraparound.
	seen  []uint32
	stamp uint32
}

func (s *pageSet) reset() {
	s.stamp++
	if s.stamp == 0 { // wrapped: stale slots may hold any value; re-zero once
		clear(s.seen)
		s.stamp = 1
	}
}

// visited marks page p and reports whether it was already marked.
func (s *pageSet) visited(p int) bool {
	if p >= len(s.seen) {
		s.seen = append(s.seen, make([]uint32, p+1-len(s.seen))...)
	}
	if s.seen[p] == s.stamp {
		return true
	}
	s.seen[p] = s.stamp
	return false
}
