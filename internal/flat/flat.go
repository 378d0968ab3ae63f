// Package flat implements FLAT (Tauheed et al., ICDE'12), the
// density-independent range-query execution strategy that §2 of the
// demonstrated paper presents.
//
// FLAT splits query execution into two phases, both independent of data
// density:
//
//  1. Seed: a small R-tree over *page* MBRs (not elements) locates one
//     arbitrary page inside the query range. Finding an arbitrary page needs
//     roughly one root-to-leaf descent regardless of how dense the data is,
//     unlike finding all matches, which suffers from MBR overlap.
//  2. Crawl: precomputed neighborhood links between pages are followed
//     breadth-first from the seed, visiting exactly the pages whose MBRs
//     intersect the range. The crawl's cost depends only on the result size.
//
// The indexing phase lays elements out on disk pages with STR packing (the
// layout the FLAT paper uses), computes each page's MBR, and derives the
// neighborhood graph: two pages are neighbors when their MBRs, expanded by
// half the neighborhood tolerance, intersect. In dense neuroscience data the
// page MBRs overlap heavily, so the graph is strongly connected wherever
// there is data.
//
// Degenerate sparse regions can still split the query range across several
// graph components; FLAT remains exact by re-seeding: after a crawl
// exhausts a component, the seed tree is probed for unvisited pages in the
// range. Every re-seed is reported in the query statistics, and the E1/E6
// experiments confirm re-seeds are rare on real densities.
package flat

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"neurospatial/internal/geom"
	"neurospatial/internal/grid"
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
	// Tolerance is the neighborhood distance: pages whose MBRs come within
	// this distance are linked. Zero links exactly touching/overlapping
	// MBRs; a small positive value bridges hairline gaps in sparse regions.
	// Default 0.
	Tolerance float64
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
	if o.Tolerance < 0 {
		o.Tolerance = 0
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
	// neighbors[p] lists the pages adjacent to page p.
	neighbors [][]pager.PageID
	// seedTree indexes page MBRs; item IDs are page IDs.
	seedTree *rtree.Tree
	// coords is the struct-of-arrays sidecar of store: per-page contiguous
	// min/max coordinate runs, so the crawl's range filter scans each loaded
	// page with sequential loads.
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
// slot, then the neighborhood graph and the seed tree.
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

	// Phase 2: derive the page neighborhood graph with a uniform grid over
	// the page MBRs expanded by tol/2 each (so pages within tol link).
	if err := idx.buildNeighborhood(); err != nil {
		return err
	}

	// Phase 3: the seed R-tree over page MBRs.
	pageItems := make([]rtree.Item, len(idx.pageBox))
	for p, b := range idx.pageBox {
		pageItems[p] = rtree.Item{Box: b, ID: int32(p)}
	}
	var err error
	idx.seedTree, err = rtree.STR(pageItems, idx.opts.SeedFanout)
	return err
}

func (idx *Index) buildNeighborhood() error {
	n := len(idx.pageBox)
	idx.neighbors = make([][]pager.PageID, n)
	if n <= 1 {
		return nil
	}
	expanded := make([]geom.AABB, n)
	bounds := geom.EmptyAABB()
	for p, b := range idx.pageBox {
		expanded[p] = b.Expand(idx.opts.Tolerance / 2)
		bounds = bounds.Union(expanded[p])
	}
	g, err := grid.NewAuto(bounds, expanded, 6)
	if err != nil {
		return err
	}
	g.ForEachCandidatePair(func(i, j int32) {
		idx.neighbors[i] = append(idx.neighbors[i], pager.PageID(j))
		idx.neighbors[j] = append(idx.neighbors[j], pager.PageID(i))
	})
	// Deterministic crawl order.
	for p := range idx.neighbors {
		slices.Sort(idx.neighbors[p])
	}
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
func (idx *Index) Bounds() geom.AABB { return idx.seedTree.Bounds() }

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
// (position-aligned with Store's pages). The engine's streaming path uses it
// for sequential per-page range filtering.
func (idx *Index) Coords() *pager.Coords { return idx.coords }

// Neighbors returns the neighbor pages of p. The slice is shared and must not
// be modified.
func (idx *Index) Neighbors(p pager.PageID) []pager.PageID { return idx.neighbors[p] }

// SeedRoot returns the root of the page R-tree (its items are pages: an item's
// ID is a page ID, its box the page's MBR); ok is false for an empty index.
func (idx *Index) SeedRoot() (rtree.NodeView, bool) { return idx.seedTree.Root() }

// SeedTreeHeight returns the height of the page R-tree (for reporting).
func (idx *Index) SeedTreeHeight() int { return idx.seedTree.Height() }

// GraphStats summarizes the neighborhood graph.
type GraphStats struct {
	// Pages is the page count.
	Pages int
	// Edges is the undirected link count.
	Edges int
	// AvgDegree is 2*Edges/Pages.
	AvgDegree float64
	// MaxDegree is the largest neighbor list.
	MaxDegree int
	// Components is the number of connected components (1 = fully crawlable
	// from any seed).
	Components int
}

// GraphStats computes summary statistics of the neighborhood graph.
func (idx *Index) GraphStats() GraphStats {
	st := GraphStats{Pages: len(idx.neighbors)}
	for _, ns := range idx.neighbors {
		st.Edges += len(ns)
		if len(ns) > st.MaxDegree {
			st.MaxDegree = len(ns)
		}
	}
	st.Edges /= 2
	if st.Pages > 0 {
		st.AvgDegree = 2 * float64(st.Edges) / float64(st.Pages)
	}
	// Count components with a BFS.
	visited := make([]bool, st.Pages)
	for p := range visited {
		if visited[p] {
			continue
		}
		st.Components++
		queue := []pager.PageID{pager.PageID(p)}
		visited[p] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range idx.neighbors[cur] {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	return st
}

// QueryStats describes the work of one FLAT query, split into the two phases
// the paper describes. PagesRead is the number FLAT's row of the demo's
// statistics panel reports.
type QueryStats struct {
	// SeedNodeAccesses counts seed-tree node reads (the small R-tree over
	// page MBRs), including any re-seed probes.
	SeedNodeAccesses int64
	// PagesRead counts data pages loaded by the crawl.
	PagesRead int64
	// Reseeds counts extra seed probes needed because the query range
	// spanned disconnected graph components (0 on dense data).
	Reseeds int64
	// EntriesTested counts item-box comparisons on loaded pages.
	EntriesTested int64
	// Results counts items reported.
	Results int64
	// CrawlOrder, filled only when requested, lists the data pages in the
	// order the crawl visited them (the order Figure 4 of the paper
	// animates).
	CrawlOrder []pager.PageID
}

// TotalReads returns seed accesses plus data-page reads, FLAT's total I/O
// under the one-node-per-page accounting used for the R-tree comparison.
func (s QueryStats) TotalReads() int64 { return s.SeedNodeAccesses + s.PagesRead }

// Query reports the IDs of all items whose boxes intersect q. When pool is
// non-nil, data pages are read through it (so buffer hits and prefetches are
// accounted); a nil pool models a cold read per page.
func (idx *Index) Query(q geom.AABB, pool *pager.BufferPool, visit func(int32)) QueryStats {
	st, _ := idx.query(context.Background(), q, poolSource(idx, pool), visit, false) // never canceled
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
	return idx.query(ctx, q, src, visit, false)
}

// PagedQuery implements the prefetch.Served query path: Query through a pool
// with the stats discarded (the pool's own accounting is the record).
func (idx *Index) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	idx.Query(q, pool, visit)
}

// QueryTraced is Query but additionally records the crawl order for
// visualization.
func (idx *Index) QueryTraced(q geom.AABB, pool *pager.BufferPool, visit func(int32)) QueryStats {
	st, _ := idx.query(context.Background(), q, poolSource(idx, pool), visit, true) // never canceled
	return st
}

// poolSource resolves the legacy nil-pool convention onto a PageSource.
func poolSource(idx *Index, pool *pager.BufferPool) pager.PageSource {
	if pool == nil {
		return idx.store
	}
	return pool
}

// crawlScratch is the pooled per-query working set of the crawl: a stamped
// visited-set and a FIFO queue, reset (not reallocated) between queries, plus
// the re-seed exclusion visitor created once per scratch so the hot path
// allocates no closure. The pool makes repeated queries on an index of any
// size allocation-free in the steady state.
type crawlScratch struct {
	// visited[p] == stamp marks page p visited this query; bumping stamp
	// clears the set in O(1), with a one-time re-zero on wraparound.
	visited []uint32
	stamp   uint32
	queue   []pager.PageID
	// re-seed exclusion state driven by excl, bound to this scratch once.
	found rtree.Item
	ok    bool
	excl  func(rtree.Item)
}

var crawlPool = sync.Pool{New: func() any {
	s := &crawlScratch{}
	s.excl = func(it rtree.Item) {
		if !s.ok && s.visited[it.ID] != s.stamp {
			s.found, s.ok = it, true
		}
	}
	return s
}}

// getCrawl returns a scratch with a cleared visited-set covering n pages.
func getCrawl(n int) *crawlScratch {
	s := crawlPool.Get().(*crawlScratch)
	if cap(s.visited) < n {
		s.visited = make([]uint32, n)
	}
	s.visited = s.visited[:n]
	s.stamp++
	if s.stamp == 0 { // wrapped: stale slots may hold any value; re-zero once
		clear(s.visited)
		s.stamp = 1
	}
	s.queue = s.queue[:0]
	return s
}

func (idx *Index) query(ctx context.Context, q geom.AABB, src pager.PageSource,
	visit func(int32), trace bool) (QueryStats, error) {

	var stats QueryStats
	if len(idx.pageBox) == 0 {
		return stats, nil
	}
	sc := getCrawl(len(idx.pageBox))
	defer crawlPool.Put(sc)

	// Phase 1: seed (the allocation-free counter form of SeedInRange —
	// identical descent, identical node-access count).
	seedItem, seedNodes, _, ok := idx.seedTree.SeedInRangeCount(q)
	stats.SeedNodeAccesses += seedNodes
	if !ok {
		return stats, nil
	}

	for {
		// Phase 2: crawl breadth-first through the neighborhood links,
		// visiting pages whose MBR intersects the range. Index-based FIFO
		// over the scratch queue — same visit order as the old pop-front
		// slice queue, no per-query allocation.
		sc.queue = append(sc.queue[:0], pager.PageID(seedItem.ID))
		sc.visited[seedItem.ID] = sc.stamp
		for qi := 0; qi < len(sc.queue); qi++ {
			p := sc.queue[qi]
			if err := ctx.Err(); err != nil {
				return QueryStats{}, err
			}
			idx.readPage(p, q, src, visit, &stats, trace)
			for _, nb := range idx.neighbors[p] {
				if sc.visited[nb] != sc.stamp && idx.pageBox[nb].Intersects(q) {
					sc.visited[nb] = sc.stamp
					sc.queue = append(sc.queue, nb)
				}
			}
		}
		// Completeness: re-seed if an unvisited page still intersects the
		// range (possible only across graph components; never on dense
		// data). The probe is one more cheap descent of the page tree.
		next, reseedStats, found := idx.seedExcluding(q, sc)
		stats.SeedNodeAccesses += reseedStats
		if !found {
			return stats, nil
		}
		stats.Reseeds++
		seedItem = next
	}
}

// readPage loads page p and tests its items against the range, scanning the
// SoA coordinate sidecar sequentially (position-aligned with the page's
// resident IDs).
func (idx *Index) readPage(p pager.PageID, q geom.AABB, src pager.PageSource,
	visit func(int32), stats *QueryStats, trace bool) {
	stats.PagesRead++
	if trace {
		stats.CrawlOrder = append(stats.CrawlOrder, p)
	}
	base := idx.coords.PageOffset(p)
	for i, id := range src.ReadPage(p) {
		stats.EntriesTested++
		if idx.coords.IntersectsAt(base+i, q) {
			stats.Results++
			visit(id)
		}
	}
}

// seedExcluding finds a page intersecting q that the scratch has not visited.
// It reuses the seed tree's range traversal (counter form) but keeps only the
// first unvisited hit via the scratch's pre-bound exclusion visitor.
func (idx *Index) seedExcluding(q geom.AABB, sc *crawlScratch) (rtree.Item, int64, bool) {
	sc.ok = false
	// The tree API has no early exit, but the extra accesses are counted
	// honestly and occur only in the rare re-seed path.
	nodes, _, _ := idx.seedTree.QueryCount(q, sc.excl)
	return sc.found, nodes, sc.ok
}

// PagesInRange returns the pages whose MBRs intersect q, via the seed tree.
// Prefetchers use it to turn a predicted range into page requests.
func (idx *Index) PagesInRange(q geom.AABB) []pager.PageID {
	var out []pager.PageID
	idx.seedTree.Query(q, func(it rtree.Item) {
		out = append(out, pager.PageID(it.ID))
	})
	return out
}
