// Package engine is the unified query-execution layer over the repository's
// spatial indexes — the common face the paper's demo implies: FLAT, the
// R-tree baseline and a thin grid index all serve the *same* interactive
// range-query workload, so harnesses, drivers and the walkthrough simulator
// talk to one SpatialIndex interface and treat the concrete index as a
// configuration, not a call site.
//
// The layering (bottom to top):
//
//	index     flat.Index, rtree.Tree(+PagedTree), grid.Grid  — structures;
//	          Sharded composes any of them into K spatial shards with
//	          scatter-gather execution (shard.Partition)
//	storage   pager.Store / pager.BufferPool via pager.PageSource — every
//	          index reads data pages through a PageSource, so the buffer
//	          pool + prefetch/SCOUT stack sits beneath any of them
//	execution parallel.BatchCtx — one generic deterministic
//	          batch executor (slot-ordered visits, identical-to-serial
//	          guarantee, context cancellation)
//	harness   experiments E1–E9, cmd drivers, prefetch.Simulator
//
// The public front door is the Request/Session surface: a tagged Request
// (Range, KNN, Point, WithinDistance) executed through a Session (Open /
// Do / DoBatch) with context cancellation checked before every page read and
// returned as an ordinary error, routed either to a fixed contender or
// per-kind through the Planner, which picks an index using observed
// per-(index, kind) cost statistics (internal/stats.Running).
//
// Beneath it every contender has one traversal and two adapters (see
// traverser in exec.go): scan, the native range traversal with the page
// source an argument; knnExpand, which lets the executor's one best-first kNN
// search descend the contender's own directory; and zonePages, which names
// the candidate pages, with their ID zones, that the one lazy stream behind
// Stream and pagination reads (iter.go). One executor serves Do for all four
// contenders and every snapshot view: Do is scan plus the canonical sort (and
// the exact refinement of WithinDistance), or that search, with a view's
// overlay an argument — as it is of the stream. Every index also satisfies
// prefetch.Served: PagedQuery is scan reading through the given pool, IDs in
// emission order — so a walkthrough with prefetching can run over any of
// them.
package engine

import (
	"context"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// QueryStats is the unified per-query execution record reported by every
// index behind SpatialIndex. The mapping from each index's native counters
// is documented on the respective wrapper; the shared convention follows the
// demo's statistics panel:
//
//   - IndexReads counts accesses to RAM-resident index structure (FLAT's
//     page-level seed tree, the grid's cell directory). They are reported
//     but are not disk I/O.
//   - PagesRead counts data-page reads — the disk I/O of the query, every one
//     a real read through the page source. For the R-tree every node is a
//     disk page (the classic one-node-per-page layout), so its node accesses
//     are page reads, kNN's included.
type QueryStats struct {
	// IndexReads counts RAM-resident index-structure reads.
	IndexReads int64
	// PagesRead counts data-page reads (disk I/O).
	PagesRead int64
	// EntriesTested counts element-box comparisons.
	EntriesTested int64
	// Results counts items reported.
	Results int64
	// Reseeds counts FLAT component re-seeds (0 for other indexes).
	Reseeds int64
	// ShardsTouched counts the spatial shards the query fanned out to
	// (0 for unsharded indexes).
	ShardsTouched int64
	// DeltaEntries counts delta-overlay entries tested when the query ran
	// through a Dataset snapshot (0 on raw indexes and freshly compacted
	// snapshots). Delta entries are RAM-resident, so they are reported
	// separately from EntriesTested and carry no page cost.
	DeltaEntries int64
	// Tombstones counts base-index hits — for kNN, base items tested — the
	// snapshot overlay discarded as deleted (0 on raw indexes): the read-side
	// price of deferred deletes.
	Tombstones int64
	// PlanCacheHits / PlanCacheMisses count plan-cache consultations made to
	// route this query (both 0 when no planner routed it — fixed-index and
	// fixed-view sessions, or direct Index.Do calls). A hit replayed a cached
	// routing decision; a miss ran PlanKind, probing any unprofiled
	// contender. In a DoBatch, each distinct kind is routed once and the
	// consultation is recorded on the kind's first request, so aggregated
	// batch stats count exactly the consultations made.
	PlanCacheHits   int64
	PlanCacheMisses int64
	// LevelNodes / Levels are the R-tree's per-level node-access breakdown
	// (leaves first; Levels == 0 for other indexes): LevelNodes[l] counts
	// node accesses at level l, Levels is the number of meaningful entries.
	// An inline array rather than a slice so a stats record never allocates;
	// NodesPerLevel renders the display form.
	LevelNodes [MaxLevels]int64
	Levels     int
}

// MaxLevels bounds the per-level breakdown, matching the rtree record so the
// native array copies straight across.
const MaxLevels = rtree.MaxLevels

// NodesPerLevel renders the per-level breakdown (leaves first) as a freshly
// allocated slice, nil when no R-tree nodes were accessed — the display
// form. Hot paths read LevelNodes[:Levels] in place instead.
func (s QueryStats) NodesPerLevel() []int64 {
	if s.Levels == 0 {
		return nil
	}
	out := make([]int64, s.Levels)
	copy(out, s.LevelNodes[:s.Levels])
	return out
}

// addNode records one node access at level — the allocation-free bump the
// R-tree's kNN expansion shares with the rtree-native record.
func (s *QueryStats) addNode(level int) {
	if level >= MaxLevels {
		level = MaxLevels - 1
	}
	s.LevelNodes[level]++
	if level+1 > s.Levels {
		s.Levels = level + 1
	}
}

// TotalReads returns index reads plus page reads — the total access count
// under the demo's accounting.
func (s QueryStats) TotalReads() int64 { return s.IndexReads + s.PagesRead }

// Cost is the planner's I/O cost of the query: data-page reads dominate,
// RAM-resident index reads are discounted to 1/8 of a page read.
func (s QueryStats) Cost() float64 {
	return float64(s.PagesRead) + float64(s.IndexReads)/8
}

// Aggregate sums per-query statistics into batch totals; the per-level
// breakdown is summed element-wise. Allocation-free: the level counters are
// inline arrays on both sides, so aggregating a batch performs no heap work
// at all (the former []int64 form allocated the output slice).
func Aggregate(sts []QueryStats) QueryStats {
	var out QueryStats
	for i := range sts {
		out.add(&sts[i])
	}
	return out
}

// add folds one record into s (every counter summed, the per-level breakdown
// element-wise) — Aggregate's step, which the sharded gathers also take one
// shard at a time.
func (s *QueryStats) add(o *QueryStats) {
	s.IndexReads += o.IndexReads
	s.PagesRead += o.PagesRead
	s.EntriesTested += o.EntriesTested
	s.Results += o.Results
	s.Reseeds += o.Reseeds
	s.ShardsTouched += o.ShardsTouched
	s.DeltaEntries += o.DeltaEntries
	s.Tombstones += o.Tombstones
	s.PlanCacheHits += o.PlanCacheHits
	s.PlanCacheMisses += o.PlanCacheMisses
	for l, c := range o.LevelNodes[:o.Levels] {
		s.LevelNodes[l] += c
	}
	if o.Levels > s.Levels {
		s.Levels = o.Levels
	}
}

// SpatialIndex is the uniform query interface of the engine layer. Do is the
// front door: one typed Request of any Kind (Range, KNN, Point,
// WithinDistance), hits emitted in the canonical per-kind order (see Hit) —
// identical across contenders, shard counts and worker counts — with
// cancellation observed at page-read granularity where the kind reads pages.
//
// All implementations are deterministic, and batches (Session.DoBatch) emit
// exactly what a serial loop of Do calls would produce, in the same order,
// for any worker count (the parallel.BatchCtx guarantee).
//
// Item IDs must be dense in [0, NumItems()); they are the IDs reported by
// queries — the same contract flat.Build imposes.
type SpatialIndex interface {
	// Name identifies the index in tables and planner decisions.
	Name() string
	// Build (re)constructs the index over the items.
	Build(items []rtree.Item) error
	// Bounds returns the MBR of the indexed data (empty when empty).
	Bounds() geom.AABB
	// NumItems returns the number of indexed items.
	NumItems() int
	// Do executes one typed request, emitting hits in the canonical
	// per-kind order. It returns a *RequestError for an invalid request and
	// ctx.Err() when canceled mid-execution (in which case nothing was
	// emitted — emission is all-or-nothing). A nil ctx reads as
	// context.Background; a nil visit discards hits (stats only).
	// Pagination fields (Limit/Offset/Cursor) are honored: the request is
	// served through the lazy streaming pipeline (see Stream) and only the
	// requested page is emitted, with stats covering only the work of that
	// page. Do returns no resume cursor — paging callers go through
	// Session.Do (which mints one) or Stream + NextCursor.
	Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error)
}

// Paged is the storage capability of the engine indexes: element data lives
// on pager pages read through a swappable PageSource, and the page geometry
// is exposed for prefetchers (all three methods prefetch.PageGeometry
// needs). Every index in this package implements it.
type Paged interface {
	SpatialIndex
	// Store returns the index's page store (wrap it in a pager.BufferPool
	// and SetSource the pool to run cached).
	Store() *pager.Store
	// NumPages returns the number of data pages.
	NumPages() int
	// PageOf returns the page item id is laid out on.
	PageOf(id int32) pager.PageID
	// PagesInRange returns the pages a query of box q would touch.
	PagesInRange(q geom.AABB) []pager.PageID
	// SetSource routes subsequent page reads — Do of every kind, streams —
	// through src (nil restores cold reads from the index's own store).
	SetSource(src pager.PageSource)
	// Source returns the currently attached PageSource (nil when reads go
	// cold to the index's own store). Planner calibration probes read the
	// store whatever is attached, and leave the attachment alone.
	Source() pager.PageSource
	// PagedQuery executes one range query reading through the given pool,
	// emitting IDs in the index's native traversal order — the
	// prefetch.Served walkthrough path; the pool's counters are the record.
	// It is the contender's scan with the pool as the page source: the same
	// traversal Do(Range) runs, minus Do's canonical sort. The sort is what
	// walkthroughs must not see: scout.reconstruct and the stable sort in
	// Scout.Predict consume the result as emitted (on a walk's first step
	// every exit scores 0, so order alone picks the prefetched pages).
	// Nothing on the index is rewired, so it is safe beside concurrent
	// queries.
	PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(id int32))
}
