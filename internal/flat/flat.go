// Package flat implements FLAT (Tauheed et al., ICDE'12), the
// density-independent range-query execution strategy that §2 of the
// demonstrated paper presents.
//
// The indexing phase lays elements out on disk pages with STR packing (the
// layout the FLAT paper uses) and computes each page's MBR. The seed is an
// STR tree over those page MBRs lowered into an rtree.Dir: it indexes pages,
// not elements, so it is about page-size times smaller than an element-level
// R-tree and RAM-resident at any realistic scale.
//
// A range query is one pre-order walk of that directory: every page whose
// MBR meets the range is read once, in the directory's order, and its
// elements are tested on the page's struct-of-arrays coordinate sidecar.
// Only data pages are disk reads, and the pages read are exactly those whose
// MBRs intersect the range, so the I/O depends on the result size, not on
// the density of the data. This walk is the one PagesInRange names,
// PagesInRanges makes it for many ranges at once, and the engine's kNN search
// descends the same directory.
//
// The paper instead finds one seed page with a single descent and crawls
// precomputed page-neighbourhood links from it. With the directory in RAM
// the crawl reads the same pages, but it cannot prove it has found all of
// them without a range walk of the directory, so the walk alone is both
// cheaper and simpler.
package flat

import (
	"context"
	"fmt"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// Options configures index construction.
type Options struct {
	// PageSize is the number of elements per disk page. Default 64.
	PageSize int
	// SeedFanout is the fanout of the R-tree over page MBRs. Default
	// rtree.DefaultFanout.
	SeedFanout int
}

// DefaultOptions returns the configuration used by the experiments.
func DefaultOptions() Options {
	return Options{PageSize: 64, SeedFanout: rtree.DefaultFanout}
}

func (o Options) sanitize() Options {
	if o.PageSize <= 0 {
		o.PageSize = 64
	}
	if o.SeedFanout <= 0 {
		o.SeedFanout = rtree.DefaultFanout
	}
	return o
}

// Index is a built FLAT index over a set of items.
type Index struct {
	opts Options
	// slot[i] is the coords slot of the item with dense ID i: the sidecar is
	// the index's only copy of the item boxes (ItemBox reads it).
	slot []int32
	// store holds the page layout: page -> element IDs.
	store *pager.Store
	// pageBox[p] is the MBR of page p.
	pageBox []geom.AABB
	// pageOf[i] is the page of item i.
	pageOf []pager.PageID
	// seed is the seed tree over page MBRs, lowered; its items are pages
	// (an item's ID is a page ID, its box the page's MBR).
	seed rtree.Dir
	// coords is the struct-of-arrays sidecar of store: per-page contiguous
	// min/max coordinate runs, so the range filter scans each loaded page
	// with sequential loads.
	coords *pager.Coords
}

// Build constructs a FLAT index. Item IDs must be dense in [0, len(items));
// they are the IDs reported by queries.
func Build(items []rtree.Item, opts Options) (*Index, error) {
	o := opts.sanitize()
	boxes, err := denseBoxes(items)
	if err != nil {
		return nil, err
	}

	// Phase 1: STR-pack items onto pages.
	tiles := rtree.PackSTR(items, o.PageSize)
	builder, err := pager.NewBuilder(o.PageSize)
	if err != nil {
		return nil, err
	}
	idx := &Index{opts: o, pageBox: make([]geom.AABB, 0, len(tiles))}
	for _, tile := range tiles {
		box := geom.EmptyAABB()
		for _, it := range tile {
			builder.Add(it.ID)
			box = box.Union(it.Box)
		}
		builder.FlushPage()
		idx.pageBox = append(idx.pageBox, box)
	}
	if err := idx.finish(builder, boxes); err != nil {
		return nil, err
	}
	return idx, nil
}

// denseBoxes returns the items' boxes indexed by ID, rejecting IDs outside
// [0, len(items)). The slice is transient: the sidecar is the only copy of
// the boxes the index keeps.
func denseBoxes(items []rtree.Item) ([]geom.AABB, error) {
	boxes := make([]geom.AABB, len(items))
	for _, it := range items {
		if it.ID < 0 || int(it.ID) >= len(items) {
			return nil, fmt.Errorf("flat: item ID %d not dense in [0,%d)", it.ID, len(items))
		}
		boxes[it.ID] = it.Box
	}
	return boxes, nil
}

// finish derives everything else from a page layout — builder holds one page
// per pageBox entry, every entry an item: the store, its SoA sidecar copied
// from boxes (the transient ID-indexed boxes), each item's page and sidecar
// slot, then the seed directory.
func (idx *Index) finish(builder *pager.Builder, boxes []geom.AABB) error {
	idx.store = builder.Build()
	if idx.store.NumPages() != len(idx.pageBox) {
		return fmt.Errorf("flat: page bookkeeping diverged: %d pages, %d boxes",
			idx.store.NumPages(), len(idx.pageBox))
	}
	idx.coords = pager.BuildCoords(idx.store, func(id int32) geom.AABB { return boxes[id] })
	idx.pageOf = make([]pager.PageID, len(boxes))
	idx.slot = make([]int32, len(boxes))
	for p := range idx.pageBox {
		base := idx.coords.PageOffset(pager.PageID(p))
		for i, id := range idx.store.Page(pager.PageID(p)) {
			idx.pageOf[id], idx.slot[id] = pager.PageID(p), int32(base+i)
		}
	}

	// Phase 2: the seed R-tree over page MBRs, lowered.
	pageItems := make([]rtree.Item, len(idx.pageBox))
	for p, b := range idx.pageBox {
		pageItems[p] = rtree.Item{Box: b, ID: int32(p)}
	}
	t, err := rtree.STR(pageItems, idx.opts.SeedFanout)
	if err != nil {
		return err
	}
	idx.seed = rtree.Lower(t)
	return nil
}

// Store returns the page store holding the index's element layout. Callers
// wrap it in a pager.BufferPool to run cached experiments.
func (idx *Index) Store() *pager.Store { return idx.store }

// NumPages returns the number of data pages.
func (idx *Index) NumPages() int { return idx.store.NumPages() }

// NumItems returns the number of indexed items.
func (idx *Index) NumItems() int { return len(idx.slot) }

// Bounds returns the MBR of the indexed data (empty when the index is
// empty).
func (idx *Index) Bounds() geom.AABB { return idx.seed.Bounds() }

// Options returns the configuration the index was built with.
func (idx *Index) Options() Options { return idx.opts }

// PageBox returns the MBR of page p.
func (idx *Index) PageBox(p pager.PageID) geom.AABB { return idx.pageBox[p] }

// ItemBox returns the MBR of item id — the exact-geometry handle the
// engine's distance-based query kinds (kNN, within-distance) refine against,
// read from the item's sidecar slot.
func (idx *Index) ItemBox(id int32) geom.AABB { return idx.coords.BoxAt(int(idx.slot[id])) }

// PageOf returns the page an item is laid out on.
func (idx *Index) PageOf(id int32) pager.PageID { return idx.pageOf[id] }

// Coords returns the struct-of-arrays coordinate sidecar of the page layout
// (position-aligned with Store's pages). The engine's kNN search reads a
// page's residents' distances from it.
func (idx *Index) Coords() *pager.Coords { return idx.coords }

// Seed returns the seed directory over the page MBRs: its items are pages (an
// item's ID is a page ID, its box the page's MBR), and it has no nodes when
// the index is empty. It is shared and must not be modified.
func (idx *Index) Seed() *rtree.Dir { return &idx.seed }

// SeedTreeHeight returns the height of the seed tree (for reporting).
func (idx *Index) SeedTreeHeight() int { return idx.seed.Height() }

// QueryStats describes the work of one FLAT query. PagesRead is the number
// FLAT's row of the demo's statistics panel reports.
type QueryStats struct {
	// SeedNodeAccesses counts the seed-directory nodes the walk visited (the
	// small, RAM-resident R-tree over page MBRs).
	SeedNodeAccesses int64
	// PagesRead counts data pages loaded.
	PagesRead int64
	// EntriesTested counts item-box comparisons on loaded pages.
	EntriesTested int64
	// Results counts items reported.
	Results int64
}

// TotalReads returns seed accesses plus data-page reads, FLAT's total I/O
// under the one-node-per-page accounting used for the R-tree comparison.
func (s QueryStats) TotalReads() int64 { return s.SeedNodeAccesses + s.PagesRead }

// Query reports the IDs of all items whose boxes intersect q. When pool is
// non-nil, data pages are read through it (so buffer hits and prefetches are
// accounted); a nil pool models a cold read per page.
func (idx *Index) Query(q geom.AABB, pool *pager.BufferPool, visit func(int32)) QueryStats {
	var src pager.PageSource = idx.store
	if pool != nil {
		src = pool
	}
	st, _ := idx.query(context.Background(), q, src, visit) // never canceled
	return st
}

// QueryVia is Query reading data pages through an arbitrary PageSource (a nil
// source reads the index's own store cold) and observing ctx before every
// page read: a canceled query stops at the next page and returns ctx.Err(),
// with zero stats (visit may already have seen some IDs). It is the execution path
// the engine layer routes through, so the same buffer-pool + prefetch stack
// can sit beneath FLAT as beneath any other index.
func (idx *Index) QueryVia(ctx context.Context, q geom.AABB, src pager.PageSource, visit func(int32)) (QueryStats, error) {
	if src == nil {
		src = idx.store
	}
	return idx.query(ctx, q, src, visit)
}

// PagedQuery implements the prefetch.Served query path: Query through a pool
// with the stats discarded (the pool's own accounting is the record).
func (idx *Index) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	idx.Query(q, pool, visit)
}

// query walks the seed directory once and reads, in the walk's pre-order,
// every page whose MBR intersects q: the pages PagesInRange names, in its
// order.
func (idx *Index) query(ctx context.Context, q geom.AABB, src pager.PageSource,
	visit func(int32)) (QueryStats, error) {

	var stats QueryStats
	var err error
	seed := idx.seed.Query(q, func(it rtree.Item) {
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			idx.readPage(pager.PageID(it.ID), q, src, visit, &stats)
		}
	})
	if err != nil {
		return QueryStats{}, err
	}
	stats.SeedNodeAccesses = seed.NodeAccesses()
	return stats, nil
}

// readPage loads page p and tests its items against the range, scanning the
// SoA coordinate sidecar sequentially (position-aligned with the page's
// resident IDs).
func (idx *Index) readPage(p pager.PageID, q geom.AABB, src pager.PageSource,
	visit func(int32), stats *QueryStats) {
	stats.PagesRead++
	base := idx.coords.PageOffset(p)
	for i, id := range src.ReadPage(p) {
		stats.EntriesTested++
		if idx.coords.IntersectsAt(base+i, q) {
			stats.Results++
			visit(id)
		}
	}
}

// PagesInRange returns the pages whose MBRs intersect q, in the order Query
// reads them: a one-range PagesInRanges.
func (idx *Index) PagesInRange(q geom.AABB) []pager.PageID {
	return pager.Pages(idx.PagesInRanges(nil, []geom.AABB{q}))
}

// PagesInRanges appends to dst the pages queries of boxes would read, in one
// walk of the seed directory per window of pager.RangeWindow ranges: each
// page once per window, with the mask of the window's ranges whose boxes its
// MBR meets. The pages carrying a range's bit are those PagesInRange names
// for it, in its order. Prefetchers turn all of a step's predicted ranges
// into page requests with it.
func (idx *Index) PagesInRanges(dst []pager.RangePage, boxes []geom.AABB) []pager.RangePage {
	return idx.seed.PagesInRanges(dst, boxes)
}
