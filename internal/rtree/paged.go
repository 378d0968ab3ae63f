package rtree

import (
	"context"
	"fmt"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// PagedTree lays an R-tree's nodes onto simulated disk pages (one node per
// page, the classic disk R-tree layout) and executes queries through a
// pager.BufferPool, so R-tree I/O is accounted by the same buffer-pool
// machinery FLAT's data pages use. The E1-style comparisons can then be run
// with warm caches on both sides: the demo's statistics panel counts *disk
// pages retrieved*, and a hot root should not count against either index.
//
// The wrapper assigns page IDs in a deterministic pre-order walk at
// construction; the wrapped tree must not be mutated afterwards.
type PagedTree struct {
	tree   *Tree
	store  *pager.Store
	pageOf map[NodeView]pager.PageID
}

// NewPaged wraps a built tree. The store's pages record, for bookkeeping
// symmetry with FLAT's element pages, the IDs of the items under each leaf
// (internal nodes get empty pages — their payload is the child MBRs, which
// have no element IDs).
func NewPaged(t *Tree) (*PagedTree, error) {
	root, ok := t.Root()
	if !ok {
		return nil, fmt.Errorf("rtree: cannot page an empty tree")
	}
	builder, err := pager.NewBuilder(maxInt(1, t.Fanout()))
	if err != nil {
		return nil, err
	}
	p := &PagedTree{tree: t, pageOf: make(map[NodeView]pager.PageID)}
	var walk func(v NodeView)
	walk = func(v NodeView) {
		id := pager.PageID(len(p.pageOf))
		p.pageOf[v] = id
		if v.IsLeaf() {
			for _, it := range v.Items() {
				builder.Add(it.ID)
			}
			builder.FlushPage()
		} else {
			builder.Add(-1) // placeholder payload for an internal node
			builder.FlushPage()
			for i := 0; i < v.NumChildren(); i++ {
				walk(v.Child(i))
			}
		}
	}
	walk(root)
	p.store = builder.Build()
	if p.store.NumPages() != len(p.pageOf) {
		return nil, fmt.Errorf("rtree: page bookkeeping diverged: %d pages, %d nodes",
			p.store.NumPages(), len(p.pageOf))
	}
	return p, nil
}

// Store returns the node-per-page store; wrap it in a pager.BufferPool to
// run cached queries.
func (p *PagedTree) Store() *pager.Store { return p.store }

// Tree returns the wrapped tree.
func (p *PagedTree) Tree() *Tree { return p.tree }

// NumPages returns the page count (equals the node count).
func (p *PagedTree) NumPages() int { return p.store.NumPages() }

// PageOf returns the page a node is laid out on.
func (p *PagedTree) PageOf(v NodeView) pager.PageID { return p.pageOf[v] }

// Query reports every item intersecting q, charging one pool access per node
// visited. A nil pool degenerates to the unpaged Query.
func (p *PagedTree) Query(q geom.AABB, pool *pager.BufferPool, visit func(Item)) QueryStats {
	if pool == nil {
		return p.tree.Query(q, visit)
	}
	st, _ := p.QueryVia(context.Background(), q, pool, visit) // never canceled
	return st
}

// QueryVia is Query reading node pages through an arbitrary PageSource and
// observing ctx before every node-page read: a canceled query stops at the
// next node and returns ctx.Err() with zero stats (visit may already have
// seen some items). It is the execution path the engine layer routes through
// so the buffer-pool + prefetch stack can sit beneath the R-tree exactly as
// it does beneath FLAT. It visits the nodes the unpaged Query visits, in the
// same order, so the two report identical stats.
func (p *PagedTree) QueryVia(ctx context.Context, q geom.AABB, src pager.PageSource,
	visit func(Item)) (QueryStats, error) {

	var stats QueryStats
	root, ok := p.tree.Root()
	if !ok {
		return stats, nil
	}
	if err := p.query(ctx, root, q, src, visit, &stats); err != nil {
		return QueryStats{}, err
	}
	return stats, nil
}

// PagesInRange returns the pages of every node a query of box q would visit,
// in visit (pre-)order. Prefetchers use it to turn a predicted range into
// page requests, symmetrically with flat.Index.PagesInRange.
func (p *PagedTree) PagesInRange(q geom.AABB) []pager.PageID {
	root, ok := p.tree.Root()
	if !ok {
		return nil
	}
	var out []pager.PageID
	var walk func(v NodeView)
	walk = func(v NodeView) {
		out = append(out, p.pageOf[v])
		if v.IsLeaf() {
			return
		}
		for i := 0; i < v.NumChildren(); i++ {
			c := v.Child(i)
			if c.Box().Intersects(q) {
				walk(c)
			}
		}
	}
	if root.Box().Intersects(q) {
		walk(root)
	}
	return out
}

func (p *PagedTree) query(ctx context.Context, v NodeView, q geom.AABB, src pager.PageSource,
	visit func(Item), stats *QueryStats) error {

	if err := ctx.Err(); err != nil {
		return err
	}
	stats.visit(v.Level())
	src.ReadPage(p.pageOf[v])
	if v.IsLeaf() {
		for _, it := range v.Items() {
			stats.EntriesTested++
			if it.Box.Intersects(q) {
				stats.Results++
				visit(it)
			}
		}
		return nil
	}
	for i := 0; i < v.NumChildren(); i++ {
		c := v.Child(i)
		if c.Box().Intersects(q) {
			if err := p.query(ctx, c, q, src, visit, stats); err != nil {
				return err
			}
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
