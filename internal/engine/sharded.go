package engine

import (
	"context"
	"fmt"
	"slices"

	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/parallel"
	"neurospatial/internal/rtree"
	"neurospatial/internal/shard"
)

// ShardedOptions configures the sharded scatter-gather index.
type ShardedOptions struct {
	// Shards is the spatial shard count K; <= 0 selects 4. The effective
	// count is min(K, item count) — every built shard is non-empty.
	Shards int
	// Flat configures the per-shard FLAT indexes.
	Flat flat.Options
}

func (o ShardedOptions) sanitize() ShardedOptions {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	return o
}

// shardState is one spatial shard: a FLAT index over the shard's items
// re-labelled with dense local IDs, plus the maps back to global space.
type shardState struct {
	sub    *Flat
	bounds geom.AABB
	// global[l] is the global ID of the shard's local item l (ascending —
	// local IDs are assigned in ascending global-ID order).
	global []int32
	// pageBase is the shard's first page in the global page space.
	pageBase pager.PageID
}

// Sharded is the scatter-gather engine index: the item set is split into K
// spatial shards (shard.Partition, STR-style longest-axis recursion over
// item centers), each shard builds its own FLAT index with its own
// pager.Store, and queries fan out only to the shards whose bounds intersect
// the range.
//
// Gather order: per query, the shards are drained in shard order and the
// merged hits are emitted in ascending global ID — Sharded's fixed native
// order, identical for any shard count or worker count, and equal (as a set)
// to any unsharded contender's result.
//
// Stats mapping: per-shard QueryStats are summed into the unified record
// (NodesPerLevel element-wise), plus ShardsTouched — the number of shards
// the query fanned out to, the routing-quality counter of experiment E8.
//
// Storage: each shard lays its items on its own local pages; the Paged
// surface exposes one global page space via a dense remap (shard 0's pages
// first, then shard 1's, ...), with page contents translated to global IDs.
// Prefetchers and buffer pools therefore address sharded storage exactly
// like unsharded storage, which is what lets prefetch.Served walkthroughs
// (SCOUT included) run over a sharded store unchanged.
type Sharded struct {
	opts ShardedOptions
	// workers bounds Build's per-shard sub-builds (repository-wide semantics:
	// 0 is one per CPU). A Dataset passes its own Workers down.
	workers int
	shards  []shardState
	bounds  geom.AABB
	n       int
	// shardOf[g] / local[g] locate global item g in its shard.
	shardOf []int32
	local   []int32
	// store is the global page space (per-shard pages concatenated, contents
	// translated to global IDs).
	store *pager.Store
	// src is the externally attached global-space PageSource (SetSource).
	src pager.PageSource
	// boxOf resolves a global item's exact box through its shard (bound once
	// in NewSharded; a per-query closure would be a hot-path allocation).
	boxOf func(int32) geom.AABB
}

// NewSharded returns an unbuilt sharded index.
func NewSharded(opts ShardedOptions) *Sharded {
	s := &Sharded{opts: opts.sanitize()}
	s.boxOf = func(g int32) geom.AABB { return s.shards[s.shardOf[g]].sub.itemBoxes()(s.local[g]) }
	return s
}

// Name implements SpatialIndex.
func (s *Sharded) Name() string { return "sharded" }

// NumShards returns the number of built shards (0 before Build).
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardBounds returns the MBR of shard i's items.
func (s *Sharded) ShardBounds(i int) geom.AABB { return s.shards[i].bounds }

// Build implements SpatialIndex. Rebuilding drops an attached PageSource,
// like every other engine index: a pool wrapping the previous global store
// would serve stale pages. A failed build leaves the index empty.
func (s *Sharded) Build(items []rtree.Item) (err error) {
	s.shards, s.store, s.src = nil, nil, nil
	s.shardOf, s.local = nil, nil
	s.bounds = geom.EmptyAABB()
	s.n = len(items)
	defer func() {
		if err != nil {
			s.shards, s.store, s.shardOf, s.local, s.n = nil, nil, nil, nil, 0
			s.bounds = geom.EmptyAABB()
		}
	}()
	for _, it := range items {
		if it.ID < 0 || int(it.ID) >= len(items) {
			return fmt.Errorf("engine: sharded item ID %d not dense in [0,%d)", it.ID, len(items))
		}
	}
	if len(items) == 0 {
		return nil
	}

	parts := shard.Partition(items, s.opts.Shards)
	s.shards = make([]shardState, len(parts))
	s.shardOf = make([]int32, len(items))
	s.local = make([]int32, len(items))
	// The sub-builds run on the pool: each writes its own shards[i] and the
	// shardOf/local entries of its own items, and nothing else. What reads
	// across shards — bounds, the global page space — is assembled after the
	// join, in shard order.
	errs := make([]error, len(parts))
	parallel.ForEach(s.workers, len(parts), func(_, i int) {
		part := parts[i]
		sub := NewFlat(s.opts.Flat)
		localItems := make([]rtree.Item, len(part.Items))
		globals := make([]int32, len(part.Items))
		for l, it := range part.Items {
			localItems[l] = rtree.Item{Box: it.Box, ID: int32(l)}
			globals[l] = it.ID
			s.shardOf[it.ID] = int32(i)
			s.local[it.ID] = int32(l)
		}
		if err := sub.Build(localItems); err != nil {
			errs[i] = fmt.Errorf("engine: building shard %d: %w", i, err)
			return
		}
		s.shards[i] = shardState{sub: sub, bounds: part.Bounds, global: globals}
		// The shard's page reads dispatch through the owner, so a source
		// attached to the Sharded later is seen by every sub-index.
		sub.SetSource(&shardSource{owner: s, shard: i})
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range s.shards {
		s.bounds = s.bounds.Union(s.shards[i].bounds)
	}

	return s.globalStore()
}

// globalStore wires the global page space over the built shards: per-shard
// pages concatenated densely, contents translated from local to global IDs
// (sub-page boundaries preserved exactly, so global page base+p mirrors shard
// page p).
func (s *Sharded) globalStore() error {
	capacity := 1
	for i := range s.shards {
		if c := s.shards[i].sub.Store().Capacity(); c > capacity {
			capacity = c
		}
	}
	builder, err := pager.NewBuilder(capacity)
	if err != nil {
		return err
	}
	var base pager.PageID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.pageBase = base
		local := sh.sub.Store()
		for p := 0; p < local.NumPages(); p++ {
			for _, id := range local.Page(pager.PageID(p)) {
				builder.Add(sh.global[id])
			}
			builder.FlushPage()
		}
		base += pager.PageID(local.NumPages())
	}
	s.store = builder.Build()
	if s.store.NumPages() != int(base) {
		return fmt.Errorf("engine: sharded page bookkeeping diverged: %d global pages, %d shard pages",
			s.store.NumPages(), base)
	}
	return nil
}

// shardSource is the PageSource a sub-index reads through: it accounts the
// read in the global page space against the source passed for the call (src,
// PagedQuery's pool) or else the one attached to the owner, and returns the
// shard-local page content the sub-index's refinement expects. One is
// installed on every sub-index at build time with src nil.
type shardSource struct {
	owner *Sharded
	shard int
	src   pager.PageSource
}

func (ss *shardSource) ReadPage(p pager.PageID) []int32 {
	sh := &ss.owner.shards[ss.shard]
	src := ss.src
	if src == nil {
		src = ss.owner.src
	}
	if src != nil {
		src.ReadPage(sh.pageBase + p)
	}
	return sh.sub.Store().Page(p)
}

// Bounds implements SpatialIndex.
func (s *Sharded) Bounds() geom.AABB { return s.bounds }

// NumItems implements SpatialIndex.
func (s *Sharded) NumItems() int { return s.n }

// admits reports whether the shard can hold a hit of an ascending-ID request:
// its bounds intersect the box (Range, Point) or pass the exact Dist2Point
// sphere test (WithinDistance — tighter than the sphere's bounding box, which
// clips shards at its corners).
func (sh *shardState) admits(req Request) bool {
	if req.Kind == WithinDistance {
		return sh.bounds.Dist2Point(req.Center) <= req.Radius*req.Radius
	}
	return sh.bounds.Intersects(queryBox(req))
}

// scan implements contender: the admitting shards scan in shard order, their
// local IDs are translated to global ones, and the gather is sorted —
// ascending global ID is Sharded's native order. A source passed for the
// call addresses the global page space; each shard reads it through its own
// shardSource. Per-shard stats are summed, with ShardsTouched the fan-out.
func (s *Sharded) scan(ctx context.Context, req Request, src pager.PageSource, out *idCollector) (QueryStats, error) {
	var st QueryStats
	first := len(out.ids)
	for i := range s.shards {
		sh := &s.shards[i]
		if !sh.admits(req) {
			continue
		}
		var subSrc pager.PageSource
		if src != nil {
			// Only PagedQuery passes a source; Do's scans read through the
			// shardSource installed at build, and allocate nothing here.
			subSrc = &shardSource{owner: s, shard: i, src: src}
		}
		mark := len(out.ids)
		sst, err := sh.sub.scan(ctx, req, subSrc, out)
		if err != nil {
			return QueryStats{}, err
		}
		for j, l := range out.ids[mark:] {
			out.ids[mark+j] = sh.global[l]
		}
		st.add(&sst)
		st.ShardsTouched++
	}
	slices.Sort(out.ids[first:])
	return st, nil
}

// itemBoxes implements contender.
func (s *Sharded) itemBoxes() func(int32) geom.AABB { return s.boxOf }

// Do implements SpatialIndex through the shared executor. Range and Point fan
// out to the shards whose bounds intersect the box, WithinDistance to the
// shards whose bounds pass the exact Dist2Point sphere test, and gather into
// the canonical order. KNN is the executor's one best-first search with the
// shards' hierarchies on one frontier (knnExpand) — ShardsTouched records how
// many shards it actually descended into.
func (s *Sharded) Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error) {
	return execute(ctx, s, nil, req, visit)
}

// knnExpand implements traverser. The hierarchy is the shard MBRs, then each
// sub-index's own: the root pushes every shard's root by its bounds' distance;
// any other entry is its shard's sub-index's to expand, with the search told
// whose local IDs and pages it is seeing. Local IDs ascend with global IDs
// within a shard, and the accumulator orders by global (Dist2, ID) anyway.
func (s *Sharded) knnExpand(ks *knnSearch, e knnEntry) error {
	if e.shard < 0 {
		for i := range s.shards {
			ks.shard = int32(i)
			ks.push(s.shards[i].bounds.Dist2Point(ks.req.Center), knnRoot)
		}
		return nil
	}
	sh := &s.shards[e.shard]
	if e.ref == knnRoot {
		ks.st.ShardsTouched++
	}
	ks.shard, ks.global, ks.pageBase = e.shard, sh.global, sh.pageBase
	return sh.sub.knnExpand(ks, e)
}

// Store implements Paged: the dense global page space over all shards (nil
// before Build or when empty).
func (s *Sharded) Store() *pager.Store { return s.store }

// NumPages implements Paged.
func (s *Sharded) NumPages() int {
	if s.store == nil {
		return 0
	}
	return s.store.NumPages()
}

// PageOf implements Paged: the global page holding item id.
func (s *Sharded) PageOf(id int32) pager.PageID {
	if id < 0 || int(id) >= s.n {
		return pager.InvalidPage
	}
	sh := &s.shards[s.shardOf[id]]
	return sh.pageBase + sh.sub.PageOf(s.local[id])
}

// PagesInRange implements Paged: a one-range PagesInRanges.
func (s *Sharded) PagesInRange(q geom.AABB) []pager.PageID {
	return pager.Pages(s.PagesInRanges(nil, []geom.AABB{q}))
}

// PagesInRanges implements prefetch.PageGeometry: per window of
// pager.RangeWindow ranges, the global pages of each shard's
// PagesInRanges, shard by shard in shard order, a range counting for a shard
// only when it meets the shard's bounds. Shard page spaces are disjoint, so
// no cross-shard deduplication is needed.
func (s *Sharded) PagesInRanges(dst []pager.RangePage, boxes []geom.AABB) []pager.RangePage {
	for w, lo := int32(0), 0; lo < len(boxes); w, lo = w+1, lo+pager.RangeWindow {
		win := boxes[lo:min(lo+pager.RangeWindow, len(boxes))]
		all := pager.WindowMask(len(win))
		cover := pager.Cover(win, all)
		for i := range s.shards {
			sh := &s.shards[i]
			meets := pager.Meets(&sh.bounds, win, all, &cover)
			if meets == 0 {
				continue
			}
			start := len(dst)
			dst = sh.sub.PagesInRanges(dst, win)
			n := start
			for _, h := range dst[start:] {
				if h.Mask &= meets; h.Mask != 0 {
					dst[n] = pager.RangePage{Page: sh.pageBase + h.Page, Window: w, Mask: h.Mask}
					n++
				}
			}
			dst = dst[:n]
		}
	}
	return dst
}

// SetSource implements Paged: src addresses the global page space.
func (s *Sharded) SetSource(src pager.PageSource) { s.src = src }

// Source implements Paged.
func (s *Sharded) Source() pager.PageSource { return s.src }

// PagedQuery implements Paged (and prefetch.Served).
func (s *Sharded) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	pagedQuery(s, q, pool, visit)
}
