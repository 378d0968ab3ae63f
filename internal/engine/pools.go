package engine

import (
	"sync"

	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
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
	ids       []int32
	visit     func(int32)
	visitItem func(rtree.Item) // the rtree-native visitor form
}

var idCollectorPool = sync.Pool{New: func() any {
	c := &idCollector{ids: make([]int32, 0, 256)}
	c.visit = func(id int32) { c.ids = append(c.ids, id) }
	c.visitItem = func(it rtree.Item) { c.ids = append(c.ids, it.ID) }
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

// pageBound is a (squared distance, page) pair — the element of the ordered
// page scans every contender's doKNN builds.
type pageBound struct {
	d2 float64
	p  pager.PageID
}

// cmpPageBound orders by ascending (distance, page) — the deterministic
// nearest-first page order.
func cmpPageBound(a, b pageBound) int {
	switch {
	case a.d2 < b.d2:
		return -1
	case a.d2 > b.d2:
		return 1
	case a.p < b.p:
		return -1
	case a.p > b.p:
		return 1
	}
	return 0
}

var pageBoundPool = sync.Pool{New: func() any { s := make([]pageBound, 0, 64); return &s }}

// getPageBounds returns an empty pooled order buffer.
func getPageBounds() *[]pageBound { return pageBoundPool.Get().(*[]pageBound) }

// putPageBounds recycles an order buffer.
func putPageBounds(p *[]pageBound) { *p = (*p)[:0]; pageBoundPool.Put(p) }

var knnAccPool = sync.Pool{New: func() any { return &knnAcc{} }}

// getKNNAcc returns a pooled top-k accumulator reset for k.
func getKNNAcc(k int) *knnAcc {
	a := knnAccPool.Get().(*knnAcc)
	a.k = k
	a.h = a.h[:0]
	return a
}

// putKNNAcc recycles an accumulator. Safe after Hits(): hits are copied out
// by value before release.
func putKNNAcc(a *knnAcc) { knnAccPool.Put(a) }

var hitsPool = sync.Pool{New: func() any { s := make([]Hit, 0, 256); return &s }}

// getHits returns an empty pooled []Hit gather buffer.
func getHits() *[]Hit { return hitsPool.Get().(*[]Hit) }

// putHits recycles a gather buffer.
func putHits(p *[]Hit) { *p = (*p)[:0]; hitsPool.Put(p) }

var pageIDScratchPool = sync.Pool{New: func() any { return new(pageIDScratch) }}

// pageIDScratch is the pooled per-traversal page working set of the
// contenders' scans: a stamped seen-set replacing the per-call
// map[PageID]bool allocations of the grid read paths.
type pageIDScratch struct {
	// seen[p] == stamp marks page p visited this traversal; bumping stamp
	// clears the set in O(1). Zero value (stamp 0 vs zeroed slots) would
	// false-positive, so stamp starts at 1 and re-zeroes on wraparound.
	seen  []uint32
	stamp uint32
}

// getPageIDScratch returns a scratch with a cleared seen-set covering at
// least n pages.
func getPageIDScratch(n int) *pageIDScratch {
	s := pageIDScratchPool.Get().(*pageIDScratch)
	if cap(s.seen) < n {
		s.seen = make([]uint32, n)
	}
	s.seen = s.seen[:n]
	s.stamp++
	if s.stamp == 0 { // wrapped: stale slots may hold any value; re-zero once
		clear(s.seen)
		s.stamp = 1
	}
	return s
}

// visited marks page p and reports whether it was already marked.
func (s *pageIDScratch) visited(p int) bool {
	if s.seen[p] == s.stamp {
		return true
	}
	s.seen[p] = s.stamp
	return false
}

func putPageIDScratch(s *pageIDScratch) { pageIDScratchPool.Put(s) }
