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
// the seed-tree node accesses (the page-level R-tree is RAM-resident),
// PagesRead are the crawl's data-page reads — exactly the split the demo's
// statistics panel reports for FLAT.
type Flat struct {
	opts flat.Options
	idx  *flat.Index
	// boxOf is the exact-geometry accessor bound once per build (a per-query
	// method value would be a hot-path allocation).
	boxOf func(int32) geom.AABB
	// seed is the seed tree flattened into a RAM directory (seed[0] the
	// root): what kNN descends to the pages near its center.
	seed []seedNode
	// zones is the per-page (min, max) item-ID zone map of the build, what
	// the lazy stream orders pages by.
	zones []idZone
	src   pager.PageSource
}

// seedNode is one node of FLAT's seed tree: its MBR and its kids — indexes
// into Flat.seed, or the data pages themselves under a leaf.
type seedNode struct {
	box  geom.AABB
	leaf bool
	kids []int32
}

// flattenSeed appends the subtree under v to dir in pre-order.
func flattenSeed(dir []seedNode, v rtree.NodeView) []seedNode {
	i := len(dir)
	dir = append(dir, seedNode{box: v.Box(), leaf: v.IsLeaf()})
	kids := make([]int32, 0, max(v.NumChildren(), len(v.Items())))
	for _, it := range v.Items() {
		kids = append(kids, it.ID) // a seed-tree item is a page
	}
	for c := 0; c < v.NumChildren(); c++ {
		kids = append(kids, int32(len(dir)))
		dir = flattenSeed(dir, v.Child(c))
	}
	dir[i].kids = kids
	return dir
}

// adopt installs a built flat.Index.
func (f *Flat) adopt(idx *flat.Index) {
	f.idx, f.boxOf, f.seed = idx, idx.ItemBox, nil
	if root, ok := idx.SeedRoot(); ok {
		f.seed = flattenSeed(nil, root)
	}
	f.zones = storeZones(idx.Store())
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
		Reseeds:       s.Reseeds,
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

// scan implements contender: the seed-and-crawl traversal, IDs in crawl order.
func (f *Flat) scan(ctx context.Context, req Request, src pager.PageSource, out *idCollector) (QueryStats, error) {
	st, err := f.idx.QueryVia(ctx, queryBox(req), f.source(req, src), out.visit)
	return fromFlat(st), err
}

// itemBoxes implements contender.
func (f *Flat) itemBoxes() func(int32) geom.AABB { return f.boxOf }

// Do implements SpatialIndex through the shared executor. Range, Point and
// WithinDistance execute as seed-and-crawl traversals (Point stabs with a
// degenerate box, WithinDistance crawls the sphere's bounding box and refines
// with the exact Dist2Point test); KNN is the executor's best-first search
// down the seed tree to the pages nearest the center (knnExpand).
func (f *Flat) Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error) {
	return execute(ctx, f, nil, req, visit)
}

// knnExpand implements traverser. The hierarchy is the seed tree, then the
// data pages: a seed node (ref ^i for seed[i], the root seed[0]; a RAM step,
// one IndexRead) pushes its kids by their MBRs' distance; a page (ref >= 0) is
// read through the call's source and its residents offered.
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
	n := &f.seed[^e.ref]
	for _, k := range n.kids {
		if n.leaf {
			s.push(f.idx.PageBox(pager.PageID(k)).Dist2Point(s.req.Center), k)
		} else {
			s.push(f.seed[k].box.Dist2Point(s.req.Center), ^k)
		}
	}
	return nil
}

// zonePages implements traverser: the pages whose MBRs intersect the query
// box, found down the seed tree (the set PagesInRange returns), each with its
// zone. Every true hit lies on such a page, so the candidate set is complete.
func (f *Flat) zonePages(req Request, ps *pageStream) pager.PageSource {
	if len(f.seed) == 0 {
		return nil
	}
	f.addSeed(0, queryBox(req), ps)
	return f.source(req, nil)
}

// addSeed adds the pages under seed node i that intersect q.
func (f *Flat) addSeed(i int32, q geom.AABB, ps *pageStream) {
	n := &f.seed[i]
	for _, k := range n.kids {
		if !n.leaf {
			if f.seed[k].box.Intersects(q) {
				f.addSeed(k, q, ps)
			}
		} else if p := pager.PageID(k); f.idx.PageBox(p).Intersects(q) {
			ps.add(p, f.zones[p], f.idx.Coords())
		}
	}
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

// PagesInRange implements Paged via the seed tree.
func (f *Flat) PagesInRange(q geom.AABB) []pager.PageID {
	if f.idx == nil {
		return nil
	}
	return f.idx.PagesInRange(q)
}

// SetSource implements Paged.
func (f *Flat) SetSource(src pager.PageSource) { f.src = src }

// Source implements Paged.
func (f *Flat) Source() pager.PageSource { return f.src }

// PagedQuery implements Paged (and prefetch.Served).
func (f *Flat) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	pagedQuery(f, q, pool, visit)
}
