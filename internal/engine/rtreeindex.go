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
// lowered onto these once and not retained. Stats mapping: every node access
// is a page read through the source, for every kind, so PagesRead is the total
// node accesses, IndexReads is 0 and NodesPerLevel carries the per-level
// breakdown the demo's panel shows.
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
	// nodes is the node directory in pre-order: nodes[i] is laid out on page
	// i, and nodes[0] is the root.
	nodes []rnode
}

// rnode is one node of the directory (see RTree.nodes): its page, MBR, level
// and the (min, max) item-ID zone of its subtree — what the lazy stream
// orders nodes by.
type rnode struct {
	page  pager.PageID
	box   geom.AABB
	level int
	leaf  bool
	zone  idZone
	kids  []int32 // indexes into RTree.nodes
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
// was wrapped.
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

// page lowers t in one pre-order walk: node i of the directory is page i of
// the store, and each item's leaf page, sidecar slot and box are recorded on
// the way. A failure leaves the index empty.
func (r *RTree) page(t *rtree.Tree) error {
	r.store, r.elemPage, r.slot, r.coords, r.nodes = nil, nil, nil, nil, nil
	root, ok := t.Root()
	if !ok {
		return nil
	}
	b, err := pager.NewBuilder(t.Fanout())
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	r.elemPage = make([]pager.PageID, t.Size())
	// slot holds each item's position on its leaf page until the sidecar
	// exists; boxes is the transient input of BuildCoords.
	r.slot = make([]int32, t.Size())
	boxes := make([]geom.AABB, t.Size())
	r.lower(root, b, boxes)
	st := b.Build()
	// Guarded accessor: WrapRTree tolerates non-dense item IDs; out-of-range
	// IDs get empty (never-intersecting) sidecar slots, so no query reports
	// them, instead of panicking the build.
	r.store, r.coords = st, pager.BuildCoords(st, func(id int32) geom.AABB {
		if int(id) >= len(boxes) {
			return geom.EmptyAABB()
		}
		return boxes[id]
	})
	for id, pg := range r.elemPage {
		r.slot[id] += int32(r.coords.PageOffset(pg))
	}
	r.boxOf = func(id int32) geom.AABB { return r.coords.BoxAt(int(r.slot[id])) }
	return nil
}

// lower appends the subtree under v to the directory in pre-order and its
// nodes' pages to b — a leaf's item IDs in item order, one -1 placeholder for
// an internal node — and returns the subtree root's index. A node of a
// non-empty tree holds between one and fanout entries, so it fills exactly
// one page.
func (r *RTree) lower(v rtree.NodeView, b *pager.Builder, boxes []geom.AABB) int32 {
	ni := int32(len(r.nodes))
	n := rnode{page: pager.PageID(ni), box: v.Box(), level: v.Level(), leaf: v.IsLeaf(),
		zone: idZone{min: math.MaxInt32, max: -1}}
	r.nodes = append(r.nodes, rnode{})
	for i, it := range v.Items() {
		b.Add(it.ID)
		if int(it.ID) < len(boxes) {
			r.elemPage[it.ID], r.slot[it.ID], boxes[it.ID] = n.page, int32(i), it.Box
		}
		n.zone.min, n.zone.max = min(n.zone.min, it.ID), max(n.zone.max, it.ID)
	}
	if !n.leaf {
		b.Add(-1)
		n.kids = make([]int32, 0, v.NumChildren())
	}
	b.FlushPage()
	for c := 0; c < v.NumChildren(); c++ {
		ci := r.lower(v.Child(c), b, boxes)
		n.kids = append(n.kids, ci)
		z := r.nodes[ci].zone
		n.zone.min, n.zone.max = min(n.zone.min, z.min), max(n.zone.max, z.max)
	}
	r.nodes[ni] = n
	return ni
}

// Bounds implements SpatialIndex.
func (r *RTree) Bounds() geom.AABB {
	if len(r.nodes) == 0 {
		return geom.EmptyAABB()
	}
	return r.nodes[0].box
}

// NumItems implements SpatialIndex.
func (r *RTree) NumItems() int { return len(r.elemPage) }

// scan implements contender: the filtered descent of the directory from the
// root, IDs in descent order.
func (r *RTree) scan(ctx context.Context, req Request, src pager.PageSource, out *idCollector) (QueryStats, error) {
	var st QueryStats
	if len(r.nodes) == 0 {
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
	n := &r.nodes[ni]
	ids := src.ReadPage(n.page)
	st.PagesRead++
	st.addNode(n.level)
	if n.leaf {
		base := r.coords.PageOffset(n.page)
		for i, id := range ids {
			st.EntriesTested++
			if r.coords.IntersectsAt(base+i, q) {
				st.Results++
				out.visit(id)
			}
		}
	}
	for _, ci := range n.kids {
		if r.nodes[ci].box.Intersects(q) {
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
// is nodes[i]): expanding a node reads its page through the call's source —
// one node per page, as in the range descent — then pushes an internal node's
// kids by their MBRs' distance, or offers a leaf's residents.
func (r *RTree) knnExpand(s *knnSearch, e knnEntry) error {
	c := s.req.Center
	if e.ref == knnRoot {
		s.push(r.nodes[0].box.Dist2Point(c), 0)
		return nil
	}
	n := &r.nodes[e.ref]
	ids, err := s.read(r.source(s.req, nil), n.page)
	if err != nil {
		return err
	}
	s.st.addNode(n.level)
	if n.leaf {
		s.offerPage(r.coords, n.page, ids)
	}
	for _, ci := range n.kids {
		s.push(r.nodes[ci].box.Dist2Point(c), ci)
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
	if len(r.nodes) == 0 {
		return nil
	}
	r.inRange(queryBox(req), func(n *rnode) { ps.add(n.page, n.zone, r.coords) })
	return r.source(req, nil)
}

// inRange calls fn, in pre-order, on every directory node whose box — and
// whose ancestors' boxes — intersect q.
func (r *RTree) inRange(q geom.AABB, fn func(*rnode)) {
	if len(r.nodes) > 0 && r.nodes[0].box.Intersects(q) {
		r.walkRange(0, q, fn)
	}
}

func (r *RTree) walkRange(ni int32, q geom.AABB, fn func(*rnode)) {
	n := &r.nodes[ni]
	fn(n)
	for _, ci := range n.kids {
		if r.nodes[ci].box.Intersects(q) {
			r.walkRange(ci, q, fn)
		}
	}
}

// Store implements Paged (nil for an empty tree).
func (r *RTree) Store() *pager.Store { return r.store }

// NumPages implements Paged: one page per directory node.
func (r *RTree) NumPages() int { return len(r.nodes) }

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
	r.inRange(q, func(n *rnode) { out = append(out, n.page) })
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
