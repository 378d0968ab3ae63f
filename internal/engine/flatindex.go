package engine

import (
	"context"
	"fmt"

	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// Flat adapts flat.Index to the engine layer. Stats mapping: IndexReads are
// the seed-directory node accesses (the page-level R-tree is RAM-resident),
// PagesRead are the data-page reads — exactly the split the demo's
// statistics panel reports for FLAT.
type Flat struct {
	opts flat.Options
	idx  *flat.Index
	// boxOf is the exact-geometry accessor bound once per build (a per-query
	// method value would be a hot-path allocation).
	boxOf func(int32) geom.AABB
	src   pager.PageSource
}

// adopt installs a built flat.Index.
func (f *Flat) adopt(idx *flat.Index) {
	f.idx, f.boxOf = idx, idx.ItemBox
}

// NewFlat returns an unbuilt FLAT engine index with the given options.
func NewFlat(opts flat.Options) *Flat { return &Flat{opts: opts} }

// WrapFlat adapts an already-built flat.Index.
func WrapFlat(idx *flat.Index) *Flat {
	f := &Flat{opts: idx.Options()}
	f.adopt(idx)
	return f
}

// Inner returns the wrapped flat.Index (nil before Build).
func (f *Flat) Inner() *flat.Index { return f.idx }

// Name implements SpatialIndex.
func (f *Flat) Name() string { return "flat" }

// Build implements SpatialIndex. Rebuilding restores cold reads from the
// new store: an attached PageSource is dropped, since a pool wrapping the
// previous store would serve stale pages.
func (f *Flat) Build(items []rtree.Item) error {
	idx, err := flat.Build(items, f.opts)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	f.adopt(idx)
	f.src = nil
	return nil
}

// Bounds implements SpatialIndex.
func (f *Flat) Bounds() geom.AABB {
	if f.idx == nil {
		return geom.EmptyAABB()
	}
	return f.idx.Bounds()
}

// NumItems implements SpatialIndex.
func (f *Flat) NumItems() int {
	if f.idx == nil {
		return 0
	}
	return f.idx.NumItems()
}

// fromFlat maps FLAT's native stats onto the unified record.
func fromFlat(s flat.QueryStats) QueryStats {
	return QueryStats{
		IndexReads:    s.SeedNodeAccesses,
		PagesRead:     s.PagesRead,
		EntriesTested: s.EntriesTested,
		Results:       s.Results,
	}
}

// source resolves the PageSource of one call (see pickSource), falling back
// to cold reads from the index's own store.
func (f *Flat) source(req Request, passed pager.PageSource) pager.PageSource {
	if src := pickSource(req, passed, f.src); src != nil {
		return src
	}
	return f.idx.Store()
}

// scan implements contender: one walk of the seed directory reading every
// page it names, IDs in page order (PagesInRange's) and slot order within a
// page.
func (f *Flat) scan(ctx context.Context, req Request, src pager.PageSource, out *idCollector) (QueryStats, error) {
	st, err := f.idx.QueryVia(ctx, queryBox(req), f.source(req, src), out.visit)
	return fromFlat(st), err
}

// itemBoxes implements contender.
func (f *Flat) itemBoxes() func(int32) geom.AABB { return f.boxOf }

// Do implements SpatialIndex through the shared executor. Range, Point and
// WithinDistance execute as walks of the seed directory (Point stabs with a
// degenerate box, WithinDistance walks the sphere's bounding box and refines
// with the exact Dist2Point test); KNN is the executor's best-first search
// down the seed directory to the pages nearest the center (knnExpand).
func (f *Flat) Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error) {
	return execute(ctx, f, nil, req, visit)
}

// knnExpand implements traverser. The hierarchy is the seed directory, then
// the data pages: a seed node (ref ^i for node i, the root node 0; a RAM step,
// one IndexRead) pushes its kids by their MBRs' distance — a leaf's kids are
// the pages themselves; a page (ref >= 0) is read through the call's source
// and its residents offered.
func (f *Flat) knnExpand(s *knnSearch, e knnEntry) error {
	if e.ref >= 0 {
		p := pager.PageID(e.ref)
		ids, err := s.read(f.source(s.req, nil), p)
		if err == nil {
			s.offerPage(f.idx.Coords(), p, ids)
		}
		return err
	}
	s.st.IndexReads++
	d := f.idx.Seed()
	n := &d.Nodes[^e.ref]
	if n.Leaf() {
		for _, it := range d.ItemsOf(n) {
			s.push(it.Box.Dist2Point(s.req.Center), it.ID)
		}
		return nil
	}
	for _, k := range d.KidsOf(n) {
		s.push(d.Nodes[k].Box.Dist2Point(s.req.Center), ^k)
	}
	return nil
}

// Store implements Paged (nil before Build).
func (f *Flat) Store() *pager.Store {
	if f.idx == nil {
		return nil
	}
	return f.idx.Store()
}

// NumPages implements Paged.
func (f *Flat) NumPages() int {
	if f.idx == nil {
		return 0
	}
	return f.idx.NumPages()
}

// PageOf implements Paged.
func (f *Flat) PageOf(id int32) pager.PageID {
	if f.idx == nil || id < 0 || int(id) >= f.idx.NumItems() {
		return pager.InvalidPage
	}
	return f.idx.PageOf(id)
}

// PagesInRange implements Paged: a one-range PagesInRanges.
func (f *Flat) PagesInRange(q geom.AABB) []pager.PageID {
	return pager.Pages(f.PagesInRanges(nil, []geom.AABB{q}))
}

// PagesInRanges implements prefetch.PageGeometry via the seed directory
// (flat.Index.PagesInRanges).
func (f *Flat) PagesInRanges(dst []pager.RangePage, boxes []geom.AABB) []pager.RangePage {
	if f.idx == nil {
		return dst
	}
	return f.idx.PagesInRanges(dst, boxes)
}

// SetSource implements Paged.
func (f *Flat) SetSource(src pager.PageSource) { f.src = src }

// Source implements Paged.
func (f *Flat) Source() pager.PageSource { return f.src }

// PagedQuery implements Paged (and prefetch.Served).
func (f *Flat) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	pagedQuery(f, q, pool, visit)
}
