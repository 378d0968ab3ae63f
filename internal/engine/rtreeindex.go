package engine

import (
	"context"
	"fmt"
	"math"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// RTree adapts an R-tree to the engine layer as its node directory: each node
// of the tree is one page (the classic disk R-tree layout) whose MBR, level,
// children and item-ID zone stay in RAM, and the items' boxes live in the
// pages' coordinate sidecar. The tree itself — STR-built by Build, rebuilt
// from its leaf runs by a durable thaw, or any tree handed to WrapRTree — is
// lowered onto an rtree.Dir once and not retained. Stats mapping: every node
// access is a page read through the source, for every kind, so PagesRead is
// the total node accesses, IndexReads is 0 and NodesPerLevel carries the
// per-level breakdown the demo's panel shows.
type RTree struct {
	fanout   int
	store    *pager.Store // one page per node: a leaf's item IDs, or a -1 placeholder
	src      pager.PageSource
	elemPage []pager.PageID // item ID -> leaf page
	// slot[id] is item id's slot in coords, the index's only RAM copy of the
	// item boxes.
	slot []int32
	// boxOf is the exact-geometry accessor bound once per lowering (a
	// per-query closure would be a hot-path allocation).
	boxOf func(int32) geom.AABB
	// coords is the struct-of-arrays sidecar of the node-page store: leaf
	// pages' item coordinates as contiguous per-axis runs (internal-node
	// placeholder entries get empty boxes), read by every traversal.
	coords *pager.Coords
	// dir is the lowered tree without its entries (the store and coords hold
	// them): dir.Nodes[i] is laid out on page i, and node 0 is the root.
	dir rtree.Dir
	// zones[i] is the (min, max) item-ID zone of node i's subtree — what the
	// lazy stream orders nodes by.
	zones []idZone
}

// NewRTree returns an unbuilt R-tree engine index with the given fanout
// (<= 0 selects rtree.DefaultFanout).
func NewRTree(fanout int) *RTree {
	if fanout <= 0 {
		fanout = rtree.DefaultFanout
	}
	return &RTree{fanout: fanout}
}

// WrapRTree adapts an already-built tree (STR- or insertion-built). The tree
// is lowered onto the node directory at wrap time and not retained, so the
// caller may go on mutating it; the index keeps answering for the tree as it
// was wrapped. An item whose ID is outside [0, t.Size()) is dropped: no
// request reports it.
func WrapRTree(t *rtree.Tree) (*RTree, error) {
	r := &RTree{fanout: t.Fanout()}
	if err := r.page(t); err != nil {
		return nil, err
	}
	return r, nil
}

// Name implements SpatialIndex.
func (r *RTree) Name() string { return "rtree" }

// Build implements SpatialIndex. Rebuilding restores cold reads from the
// new store: an attached PageSource is dropped, since a pool wrapping the
// previous store would serve stale pages.
func (r *RTree) Build(items []rtree.Item) error {
	t, err := rtree.STR(items, r.fanout)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	r.src = nil
	return r.page(t)
}

// page lowers t onto the directory and lays it out: node i of the directory
// is page i of the store — a leaf's item IDs in item order, one -1
// placeholder for an internal node — and each item's leaf page and sidecar
// slot are recorded on the way. A node of a non-empty tree holds between one
// and fanout entries, so it fills exactly one page. A failure leaves the index
// empty.
func (r *RTree) page(t *rtree.Tree) error {
	r.store, r.elemPage, r.slot, r.coords, r.dir, r.zones = nil, nil, nil, nil, rtree.Dir{}, nil
	if t.Size() == 0 {
		return nil
	}
	b, err := pager.NewBuilder(t.Fanout())
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	d := rtree.Lower(t)
	n := t.Size()
	r.elemPage = make([]pager.PageID, n)
	// slot holds each item's position on its leaf page until the sidecar
	// exists.
	r.slot = make([]int32, n)
	r.zones = make([]idZone, len(d.Nodes))
	for i := range d.Nodes {
		nd, z := &d.Nodes[i], idZone{min: math.MaxInt32, max: -1}
		if nd.Leaf() {
			// An ID outside [0, n) (WrapRTree takes any tree) stays off the
			// page, so no request reports it: the leaf's run keeps only its
			// in-range items, and a leaf left with none is laid out, and
			// read, as an internal node with no kids.
			run := d.ItemsOf(nd)
			nd.N = 0
			for _, it := range run {
				if it.ID >= 0 && int(it.ID) < n {
					b.Add(it.ID)
					r.elemPage[it.ID], r.slot[it.ID] = pager.PageID(i), nd.N
					run[nd.N] = it
					nd.N++
					z.min, z.max = min(z.min, it.ID), max(z.max, it.ID)
				}
			}
			if nd.N == 0 {
				nd.Level, nd.Off = 1, 0
			}
		}
		if !nd.Leaf() {
			b.Add(-1)
		}
		b.FlushPage()
		r.zones[i] = z
	}
	// Children follow their parent in pre-order, so a reverse pass meets
	// every node's kids before the node: its zone is theirs, merged.
	for i := len(d.Nodes) - 1; i >= 0; i-- {
		if nd := &d.Nodes[i]; !nd.Leaf() {
			z := &r.zones[i]
			for _, k := range d.KidsOf(nd) {
				z.min, z.max = min(z.min, r.zones[k].min), max(z.max, r.zones[k].max)
			}
		}
	}
	st := b.Build()
	// Guarded accessor: an internal node's -1 placeholder gets an empty
	// sidecar slot, which no traversal reads as a resident. An item reads its
	// box back from the entry its page and position name.
	r.store, r.coords = st, pager.BuildCoords(st, func(id int32) geom.AABB {
		if id < 0 || int(id) >= n {
			return geom.EmptyAABB()
		}
		return d.Items[d.Nodes[r.elemPage[id]].Off+r.slot[id]].Box
	})
	for id, pg := range r.elemPage {
		r.slot[id] += int32(r.coords.PageOffset(pg))
	}
	d.Items = nil // the store and coords hold the entries
	r.dir = d
	r.boxOf = func(id int32) geom.AABB { return r.coords.BoxAt(int(r.slot[id])) }
	return nil
}

// Bounds implements SpatialIndex.
func (r *RTree) Bounds() geom.AABB {
	return r.dir.Bounds()
}

// NumItems implements SpatialIndex.
func (r *RTree) NumItems() int { return len(r.elemPage) }

// scan implements contender: the filtered descent of the directory from the
// root, IDs in descent order.
func (r *RTree) scan(ctx context.Context, req Request, src pager.PageSource, out *idCollector) (QueryStats, error) {
	var st QueryStats
	if len(r.dir.Nodes) == 0 {
		return st, nil
	}
	if err := r.descend(ctx, 0, queryBox(req), r.source(req, src), out, &st); err != nil {
		return QueryStats{}, err
	}
	return st, nil
}

// descend reads node ni's page through src (ctx checked first), emits the
// residents of a leaf whose sidecar boxes intersect q, and descends into the
// children whose MBRs intersect q.
func (r *RTree) descend(ctx context.Context, ni int32, q geom.AABB, src pager.PageSource, out *idCollector, st *QueryStats) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	n := &r.dir.Nodes[ni]
	ids := src.ReadPage(pager.PageID(ni))
	st.PagesRead++
	st.addNode(int(n.Level))
	if n.Leaf() {
		base := r.coords.PageOffset(pager.PageID(ni))
		for i, id := range ids {
			st.EntriesTested++
			if r.coords.IntersectsAt(base+i, q) {
				st.Results++
				out.visit(id)
			}
		}
		return nil
	}
	for _, ci := range r.dir.KidsOf(n) {
		if r.dir.Nodes[ci].Box.Intersects(q) {
			if err := r.descend(ctx, ci, q, src, out, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// itemBoxes implements contender.
func (r *RTree) itemBoxes() func(int32) geom.AABB { return r.boxOf }

// Do implements SpatialIndex through the shared executor. Range, Point and
// WithinDistance run as filtered descents (Point stabs with a degenerate box,
// WithinDistance descends the sphere's bounding box and refines with the
// exact Dist2Point test). KNN is the executor's best-first search over the
// node directory (knnExpand), every node a page read through the source:
// NodesPerLevel carries the per-level access breakdown and PagesRead its total.
func (r *RTree) Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error) {
	return execute(ctx, r, nil, req, visit)
}

// knnExpand implements traverser. The hierarchy is the node directory (ref i
// is node i, on page i): expanding a node reads its page through the call's source —
// one node per page, as in the range descent — then pushes an internal node's
// kids by their MBRs' distance, or offers a leaf's residents.
func (r *RTree) knnExpand(s *knnSearch, e knnEntry) error {
	c := s.req.Center
	if e.ref == knnRoot {
		s.push(r.dir.Nodes[0].Box.Dist2Point(c), 0)
		return nil
	}
	n := &r.dir.Nodes[e.ref]
	ids, err := s.read(r.source(s.req, nil), pager.PageID(e.ref))
	if err != nil {
		return err
	}
	s.st.addNode(int(n.Level))
	if n.Leaf() {
		s.offerPage(r.coords, pager.PageID(e.ref), ids)
		return nil
	}
	for _, ci := range r.dir.KidsOf(n) {
		s.push(r.dir.Nodes[ci].Box.Dist2Point(c), ci)
	}
	return nil
}

// source resolves the PageSource of one call (see pickSource), falling back
// to cold reads from the node-page store.
func (r *RTree) source(req Request, passed pager.PageSource) pager.PageSource {
	if src := pickSource(req, passed, r.src); src != nil {
		return src
	}
	return r.store
}

// zonePages implements traverser: every directory node the range descent
// visits (inRange) at its page, with its subtree's zone. An internal node's
// page holds no element, so the stream reads it, one page read as in the
// descent, when it becomes the least unread zone: never before its parent
// (pages are assigned in pre-order, so a tie on the zone min goes to the
// parent) and never past the point a Limit stops the stream.
func (r *RTree) zonePages(req Request, ps *pageStream) pager.PageSource {
	if len(r.dir.Nodes) == 0 {
		return nil
	}
	r.inRange(queryBox(req), func(ni int32) { ps.add(pager.PageID(ni), r.zones[ni], r.coords) })
	return r.source(req, nil)
}

// inRange calls fn, in pre-order, on the index of every directory node whose
// box — and whose ancestors' boxes — intersect q.
func (r *RTree) inRange(q geom.AABB, fn func(int32)) {
	if len(r.dir.Nodes) > 0 && r.dir.Nodes[0].Box.Intersects(q) {
		r.walkRange(0, q, fn)
	}
}

func (r *RTree) walkRange(ni int32, q geom.AABB, fn func(int32)) {
	fn(ni)
	n := &r.dir.Nodes[ni]
	if n.Leaf() {
		return
	}
	for _, ci := range r.dir.KidsOf(n) {
		if r.dir.Nodes[ci].Box.Intersects(q) {
			r.walkRange(ci, q, fn)
		}
	}
}

// Store implements Paged (nil for an empty tree).
func (r *RTree) Store() *pager.Store { return r.store }

// NumPages implements Paged: one page per directory node.
func (r *RTree) NumPages() int { return len(r.dir.Nodes) }

// PageOf implements Paged: the page of the leaf holding item id.
func (r *RTree) PageOf(id int32) pager.PageID {
	if id < 0 || int(id) >= len(r.elemPage) {
		return pager.InvalidPage
	}
	return r.elemPage[id]
}

// PagesInRange implements Paged: the pages of every node a query of box q
// would visit, in pre-order.
func (r *RTree) PagesInRange(q geom.AABB) []pager.PageID {
	var out []pager.PageID
	r.inRange(q, func(ni int32) { out = append(out, pager.PageID(ni)) })
	return out
}

// SetSource implements Paged.
func (r *RTree) SetSource(src pager.PageSource) { r.src = src }

// Source implements Paged.
func (r *RTree) Source() pager.PageSource { return r.src }

// PagedQuery implements Paged (and prefetch.Served).
func (r *RTree) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	pagedQuery(r, q, pool, visit)
}
