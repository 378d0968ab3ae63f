package engine

import (
	"context"
	"fmt"
	"math"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// RTree adapts an STR-bulk-loaded rtree.Tree to the engine layer, with its
// nodes laid onto simulated disk pages (rtree.PagedTree, one node per page —
// the classic disk R-tree layout). Stats mapping: every node access is a
// page read — a real read through the source for every kind, kNN included —
// so PagesRead is the total node accesses, IndexReads is 0 and NodesPerLevel
// carries the per-level breakdown the demo's panel shows.
type RTree struct {
	fanout   int
	tree     *rtree.Tree
	paged    *rtree.PagedTree
	src      pager.PageSource
	elemPage []pager.PageID // item ID -> leaf page
	// slot[id] is item id's slot in coords, the index's only RAM copy of the
	// item boxes outside the tree's own leaves.
	slot []int32
	// boxOf is the exact-geometry accessor bound once per paging (a
	// per-query closure would be a hot-path allocation).
	boxOf func(int32) geom.AABB
	// coords is the struct-of-arrays sidecar of the node-page store: leaf
	// pages' item coordinates as contiguous per-axis runs (internal-node
	// placeholder entries get empty boxes), scanned sequentially by the kNN
	// search and the lazy stream.
	coords *pager.Coords
	// nodes is the RAM-resident node directory built at paging time: per
	// node its page, MBR, level and the (min, max) item-ID zone of its
	// subtree — what the lazy stream orders nodes by. nodes[0] is the root.
	nodes []rnode
}

// rnode is one node of the RAM directory (see RTree.nodes).
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
// is paged at wrap time and must not be mutated afterwards.
func WrapRTree(t *rtree.Tree) (*RTree, error) {
	r := &RTree{fanout: t.Fanout(), tree: t}
	if err := r.page(); err != nil {
		return nil, err
	}
	return r, nil
}

// Inner returns the wrapped rtree.Tree (nil before Build).
func (r *RTree) Inner() *rtree.Tree { return r.tree }

// PagedTree returns the node-per-page layout (nil for an empty tree).
func (r *RTree) PagedTree() *rtree.PagedTree { return r.paged }

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
	r.tree, r.src = t, nil
	return r.page()
}

// page lays the tree's nodes onto pages and indexes each item's leaf page
// and sidecar slot. A failure leaves the index empty.
func (r *RTree) page() error {
	r.paged, r.elemPage, r.slot, r.coords, r.nodes = nil, nil, nil, nil, nil
	if r.tree.Size() == 0 {
		return nil
	}
	p, err := rtree.NewPaged(r.tree)
	if err != nil {
		r.tree = nil
		return fmt.Errorf("engine: %w", err)
	}
	r.paged = p
	r.elemPage = make([]pager.PageID, r.tree.Size())
	// slot holds each item's position on its leaf page until the sidecar
	// exists; boxes is the transient input of BuildCoords.
	r.slot = make([]int32, r.tree.Size())
	boxes := make([]geom.AABB, r.tree.Size())
	r.boxOf = func(id int32) geom.AABB { return r.coords.BoxAt(int(r.slot[id])) }
	root, _ := r.tree.Root()
	var walk func(v rtree.NodeView) int32
	walk = func(v rtree.NodeView) int32 {
		ni := int32(len(r.nodes))
		r.nodes = append(r.nodes, rnode{})
		n := rnode{page: p.PageOf(v), box: v.Box(), level: v.Level(), leaf: v.IsLeaf(),
			zone: idZone{min: math.MaxInt32, max: -1}}
		if v.IsLeaf() {
			for i, it := range v.Items() {
				if int(it.ID) < len(r.elemPage) {
					r.elemPage[it.ID] = n.page
					r.slot[it.ID] = int32(i)
					boxes[it.ID] = it.Box
				}
				n.zone.min, n.zone.max = min(n.zone.min, it.ID), max(n.zone.max, it.ID)
			}
		} else {
			n.kids = make([]int32, 0, v.NumChildren())
			for i := 0; i < v.NumChildren(); i++ {
				ci := walk(v.Child(i))
				n.kids = append(n.kids, ci)
				c := r.nodes[ci].zone
				n.zone.min, n.zone.max = min(n.zone.min, c.min), max(n.zone.max, c.max)
			}
		}
		r.nodes[ni] = n
		return ni
	}
	walk(root)
	// Guarded accessor: WrapRTree tolerates non-dense item IDs;
	// out-of-range IDs get empty (never-intersecting) sidecar slots instead
	// of panicking the build.
	r.coords = pager.BuildCoords(r.paged.Store(), func(id int32) geom.AABB {
		if int(id) >= len(boxes) {
			return geom.EmptyAABB()
		}
		return boxes[id]
	})
	for id, pg := range r.elemPage {
		r.slot[id] += int32(r.coords.PageOffset(pg))
	}
	return nil
}

// Bounds implements SpatialIndex.
func (r *RTree) Bounds() geom.AABB {
	if r.tree == nil {
		return geom.EmptyAABB()
	}
	return r.tree.Bounds()
}

// NumItems implements SpatialIndex.
func (r *RTree) NumItems() int {
	if r.tree == nil {
		return 0
	}
	return r.tree.Size()
}

// fromRTree maps the tree's native stats onto the unified record.
func fromRTree(s rtree.QueryStats) QueryStats {
	return QueryStats{
		PagesRead:     s.NodeAccesses(),
		EntriesTested: s.EntriesTested,
		Results:       s.Results,
		LevelNodes:    s.LevelNodes,
		Levels:        s.Levels,
	}
}

// scan implements contender: the filtered descent, IDs in descent order.
// With no source to read through and a context that cannot be canceled it
// descends the RAM tree — the same nodes in the same order as the paged
// descent, so the same record, with no page reads to check a context at.
func (r *RTree) scan(ctx context.Context, req Request, src pager.PageSource, out *idCollector) (QueryStats, error) {
	q := queryBox(req)
	src = pickSource(req, src, r.src)
	if src == nil {
		if !cancelable(ctx) {
			return fromRTree(r.tree.Query(q, out.visitItem)), nil
		}
		src = r.paged.Store()
	}
	st, err := r.paged.QueryVia(ctx, q, src, out.visitItem)
	return fromRTree(st), err
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
	ids, err := s.read(r.source(s.req), n.page)
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

// source resolves the PageSource of one call that reads every node it visits
// (see pickSource), falling back to cold reads from the node-page store.
func (r *RTree) source(req Request) pager.PageSource {
	if src := pickSource(req, nil, r.src); src != nil {
		return src
	}
	return r.paged.Store()
}

// zonePages implements traverser: every directory node the range descent
// visits — each node whose box, and whose ancestors' boxes, intersect the
// query box — at its page, with its subtree's zone. An internal node's page
// holds no element, so the stream reads it, one page read as in the descent,
// when it becomes the least unread zone: never before its parent (pages are
// assigned in pre-order, so a tie on the zone min goes to the parent) and
// never past the point a Limit stops the stream.
func (r *RTree) zonePages(req Request, ps *pageStream) pager.PageSource {
	if len(r.nodes) == 0 {
		return nil
	}
	if q := queryBox(req); r.nodes[0].box.Intersects(q) {
		r.addNode(0, q, ps)
	}
	return r.source(req)
}

// addNode adds node ni and the nodes beneath it that intersect q.
func (r *RTree) addNode(ni int32, q geom.AABB, ps *pageStream) {
	n := &r.nodes[ni]
	ps.add(n.page, n.zone, r.coords)
	for _, ci := range n.kids {
		if r.nodes[ci].box.Intersects(q) {
			r.addNode(ci, q, ps)
		}
	}
}

// Store implements Paged (nil for an empty tree).
func (r *RTree) Store() *pager.Store {
	if r.paged == nil {
		return nil
	}
	return r.paged.Store()
}

// NumPages implements Paged.
func (r *RTree) NumPages() int {
	if r.paged == nil {
		return 0
	}
	return r.paged.NumPages()
}

// PageOf implements Paged: the page of the leaf holding item id.
func (r *RTree) PageOf(id int32) pager.PageID {
	if id < 0 || int(id) >= len(r.elemPage) {
		return pager.InvalidPage
	}
	return r.elemPage[id]
}

// PagesInRange implements Paged: the pages of every node a query of box q
// would visit.
func (r *RTree) PagesInRange(q geom.AABB) []pager.PageID {
	if r.paged == nil {
		return nil
	}
	return r.paged.PagesInRange(q)
}

// SetSource implements Paged.
func (r *RTree) SetSource(src pager.PageSource) { r.src = src }

// Source implements Paged.
func (r *RTree) Source() pager.PageSource { return r.src }

// PagedQuery implements Paged (and prefetch.Served).
func (r *RTree) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	pagedQuery(r, q, pool, visit)
}
