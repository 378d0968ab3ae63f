package engine

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"neurospatial/internal/durable"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// The R-tree contender keeps its node directory, not the tree it was lowered
// from: these tests pin the lowering's one-node-per-page layout, and that what
// a checkpoint records of the contender — freezeIndex's leaf runs — is still
// the tree's leaves left to right however the tree was made, and that a thaw
// reproduces the record it came from.

// leafRuns returns a tree's leaves in WalkLeaves pre-order, in the record's
// form: the item IDs concatenated, and each leaf's length.
func leafRuns(t *rtree.Tree) (order, lens []int32) {
	t.WalkLeaves(func(_ geom.AABB, items []rtree.Item) {
		for _, it := range items {
			order = append(order, it.ID)
		}
		lens = append(lens, int32(len(items)))
	})
	return order, lens
}

// checkFrozen freezes r and asserts the record is the leaf runs (order, lens)
// at fanout.
func checkFrozen(t *testing.T, name string, r *RTree, order, lens []int32, fanout int) durable.IndexRec {
	t.Helper()
	rec, err := freezeIndex("rtree", r)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(rec.Order, order) || !slices.Equal(rec.GroupLens, lens) {
		t.Fatalf("%s: frozen record (%d entries in %d runs) is not the tree's leaves (%d in %d)",
			name, len(rec.Order), len(rec.GroupLens), len(order), len(lens))
	}
	if !slices.Equal(rec.Meta, []int64{int64(fanout)}) {
		t.Fatalf("%s: meta %v, want the fanout %d", name, rec.Meta, fanout)
	}
	return rec
}

func TestFrozenRTreeRecordIsLeafOrder(t *testing.T) {
	const fanout = 12
	items := scatteredItems(3000, 100, 31)

	str, err := rtree.STR(items, fanout)
	if err != nil {
		t.Fatal(err)
	}
	built := NewRTree(fanout)
	if err := built.Build(items); err != nil {
		t.Fatal(err)
	}
	strOrder, strLens := leafRuns(str)

	// An insertion-built tree, mutated after it is wrapped: the contender
	// freezes the tree as it was wrapped.
	dyn, err := rtree.New(fanout)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		dyn.Insert(it)
	}
	dynOrder, dynLens := leafRuns(dyn)
	wrapped, err := WrapRTree(dyn)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items[:500] {
		dyn.Insert(it)
	}

	for _, tc := range []struct {
		name        string
		r           *RTree
		order, lens []int32
	}{{"str", built, strOrder, strLens}, {"insertion", wrapped, dynOrder, dynLens}} {
		rec := checkFrozen(t, tc.name, tc.r, tc.order, tc.lens, fanout)
		thawed, err := thawRTree(&rec, items)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		leaf := make([]rtree.Item, len(rec.Order))
		for i, id := range rec.Order {
			leaf[i] = items[id]
		}
		rebuilt, err := rtree.FromLeafRuns(leaf, rec.GroupLens, fanout)
		if err != nil {
			t.Fatal(err)
		}
		order, lens := leafRuns(rebuilt)
		again := checkFrozen(t, tc.name+"/thawed", thawed, order, lens, fanout)
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("%s: freeze → thaw → freeze moved the record", tc.name)
		}
	}
}

// TestRTreeLayoutOneNodePerPage: the lowering lays each node of the tree on a
// page of its own, in pre-order — directory node i is page i, with the node's
// MBR and level; a leaf's page holds exactly its items' IDs in item order and
// an internal node's one placeholder. The rtree package's paging tests hold
// the same form to the tree through the exported surface.
func TestRTreeLayoutOneNodePerPage(t *testing.T) {
	tr, err := rtree.STR(scatteredItems(500, 40, 93), 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := WrapRTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	var walk func(v rtree.NodeView)
	walk = func(v rtree.NodeView) {
		p := pager.PageID(nodes)
		nodes++
		want := []int32{-1}
		if v.IsLeaf() {
			want = want[:0]
			for _, it := range v.Items() {
				want = append(want, it.ID)
			}
		}
		if got := r.store.Page(p); !slices.Equal(got, want) {
			t.Fatalf("page %d holds %v, want %v", p, got, want)
		}
		if n := &r.dir.Nodes[p]; n.Box != v.Box() || int(n.Level) != v.Level() || n.Leaf() != v.IsLeaf() {
			t.Fatalf("directory node %d is %+v, the tree's node has box %v, level %d", p, *n, v.Box(), v.Level())
		}
		for c := 0; c < v.NumChildren(); c++ {
			walk(v.Child(c))
		}
	}
	root, _ := tr.Root()
	walk(root)
	if r.NumPages() != nodes || len(r.dir.Nodes) != nodes {
		t.Fatalf("%d pages and %d directory nodes for a tree of %d nodes", r.NumPages(), len(r.dir.Nodes), nodes)
	}
}

// TestWrapRTreeNegativeID: an ID below zero is as out of range as one past
// the tree's size. Neither panics the lowering, and no request kind reports
// either — not an all-space range or a kNN that asks for every entry, and not
// when a whole leaf holds nothing else.
func TestWrapRTreeNegativeID(t *testing.T) {
	all := geom.Box(geom.V(math.Inf(-1), math.Inf(-1), math.Inf(-1)), geom.V(math.Inf(1), math.Inf(1), math.Inf(1)))
	hits := func(r *RTree, req Request) []int32 {
		t.Helper()
		var got []int32
		if _, err := r.Do(context.Background(), req, func(h Hit) { got = append(got, h.ID) }); err != nil {
			t.Fatal(err)
		}
		return got
	}
	wrap := func(items []rtree.Item, fanout int) *RTree {
		t.Helper()
		tr, err := rtree.STR(items, fanout)
		if err != nil {
			t.Fatal(err)
		}
		r, err := WrapRTree(tr)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := wrap([]rtree.Item{
		{Box: geom.BoxAround(geom.V(1, 1, 1), 1), ID: -3},
		{Box: geom.BoxAround(geom.V(4, 4, 4), 1), ID: 0},
		{Box: geom.BoxAround(geom.V(6, 6, 6), 1), ID: 7},
	}, 0)
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"range", RangeRequest(geom.Box(geom.V(-10, -10, -10), geom.V(10, 10, 10)))},
		{"all-space range", RangeRequest(all)},
		{"knn k=3", KNNRequest(geom.V(0, 0, 0), 3)},
		{"within", WithinDistanceRequest(geom.V(4, 4, 4), 100)},
		{"paginated all-space range", Request{Kind: Range, Box: all, Limit: 2}},
	} {
		if got := hits(r, c.req); !slices.Equal(got, []int32{0}) {
			t.Errorf("%s over {-3, 0, 7} reported %v, want [0]", c.name, got)
		}
	}
	for _, p := range []geom.Vec{geom.V(1, 1, 1), geom.V(6, 6, 6)} {
		if got := hits(r, PointRequest(p)); len(got) != 0 {
			t.Errorf("point %v reported %v, want nothing", p, got)
		}
	}
	// Fanout 4 over 12 items: the 8 out-of-range ones fill whole leaves.
	var items []rtree.Item
	for i := 0; i < 12; i++ {
		id := int32(i)
		if i >= 4 {
			id = int32(-i)
			if i%2 == 0 {
				id = int32(100 + i)
			}
		}
		items = append(items, rtree.Item{Box: geom.BoxAround(geom.V(float64(10*i), 0, 0), 1), ID: id})
	}
	r = wrap(items, 4)
	for _, req := range []Request{RangeRequest(all), KNNRequest(geom.V(200, 0, 0), 12), {Kind: Range, Box: all, Limit: 8}} {
		got := hits(r, req)
		slices.Sort(got)
		if !slices.Equal(got, []int32{0, 1, 2, 3}) {
			t.Errorf("%v over whole out-of-range leaves reported %v, want [0 1 2 3]", req.Kind, got)
		}
	}
}
