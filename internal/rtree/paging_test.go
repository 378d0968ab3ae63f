package rtree_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// A tree's paged form — one node per page, in pre-order, queried through a
// pager.BufferPool — is the engine's R-tree contender: WrapRTree lowers the
// tree onto its node directory and page store. These tests hold that form to
// the tree it was lowered from.

// pagedItems produces n random small boxes in a cube of the given extent.
func pagedItems(seed int64, n int, extent float64) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, n)
	for i := range items {
		c := geom.V(rng.Float64()*extent, rng.Float64()*extent, rng.Float64()*extent)
		items[i] = rtree.Item{Box: geom.BoxAround(c, rng.Float64()*extent/100+extent/1000), ID: int32(i)}
	}
	return items
}

// paged STR-builds items at fanout and lowers the tree.
func paged(t *testing.T, items []rtree.Item, fanout int) (*rtree.Tree, *engine.RTree) {
	t.Helper()
	tr, err := rtree.STR(items, fanout)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.WrapRTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr, r
}

// treeIDs returns the sorted IDs tr.Query reports for q, and its stats.
func treeIDs(tr *rtree.Tree, q geom.AABB) ([]int32, rtree.QueryStats) {
	var ids []int32
	st := tr.Query(q, func(it rtree.Item) { ids = append(ids, it.ID) })
	slices.Sort(ids)
	return ids, st
}

// doIDs runs a range request on r and returns the sorted hit IDs and stats.
func doIDs(t *testing.T, r *engine.RTree, q geom.AABB) ([]int32, engine.QueryStats) {
	t.Helper()
	var ids []int32
	st, err := r.Do(context.Background(), engine.RangeRequest(q), func(h engine.Hit) { ids = append(ids, h.ID) })
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(ids)
	return ids, st
}

// TestNewPagedValidation: an empty tree pages to an empty index — no pages, no
// store, no hits — rather than failing.
func TestNewPagedValidation(t *testing.T) {
	empty, err := rtree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.WrapRTree(empty)
	if err != nil {
		t.Fatalf("paging an empty tree: %v", err)
	}
	if r.NumItems() != 0 || r.NumPages() != 0 || r.Store() != nil {
		t.Fatalf("an empty tree paged to %d items on %d pages", r.NumItems(), r.NumPages())
	}
	q := geom.BoxAround(geom.V(0, 0, 0), 1)
	if ids, st := doIDs(t, r, q); len(ids) != 0 || st.PagesRead != 0 {
		t.Fatalf("empty index answered %v reading %d pages", ids, st.PagesRead)
	}
	if pages := r.PagesInRange(q); len(pages) != 0 {
		t.Fatalf("empty index has pages %v in range", pages)
	}
}

// TestPagedQueryMatchesUnpaged: through a pool, the paged descent reports the
// tree's hits with its node accesses, level by level.
func TestPagedQueryMatchesUnpaged(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	tr, r := paged(t, pagedItems(91, 2000, 80), 16)
	pool, err := pager.NewBufferPool(r.Store(), r.NumPages())
	if err != nil {
		t.Fatal(err)
	}
	r.SetSource(pool)
	for trial := 0; trial < 30; trial++ {
		q := geom.BoxAround(
			geom.V(rng.Float64()*80, rng.Float64()*80, rng.Float64()*80),
			rng.Float64()*12+1)
		want, wantSt := treeIDs(tr, q)
		got, st := doIDs(t, r, q)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: paged query found %d IDs, the tree %d", trial, len(got), len(want))
		}
		if st.PagesRead != wantSt.NodeAccesses() || !slices.Equal(st.NodesPerLevel(), wantSt.NodesPerLevel()) {
			t.Fatalf("trial %d: paged query read %d pages %v, the tree accessed %d nodes %v",
				trial, st.PagesRead, st.NodesPerLevel(), wantSt.NodeAccesses(), wantSt.NodesPerLevel())
		}
		var viaPool []int32
		r.PagedQuery(q, pool, func(id int32) { viaPool = append(viaPool, id) })
		slices.Sort(viaPool)
		if !slices.Equal(viaPool, want) {
			t.Fatalf("trial %d: PagedQuery found %d IDs, the tree %d", trial, len(viaPool), len(want))
		}
	}
}

// TestPagedQueryChargesPool: every node access is one pool access — a demand
// read cold, a hit on the warm re-run.
func TestPagedQueryChargesPool(t *testing.T) {
	_, r := paged(t, pagedItems(92, 1000, 50), 16)
	pool, err := pager.NewBufferPool(r.Store(), r.NumPages())
	if err != nil {
		t.Fatal(err)
	}
	r.SetSource(pool)
	q := geom.BoxAround(geom.V(25, 25, 25), 15)
	_, st := doIDs(t, r, q)
	poolStats := pool.Stats()
	if st.PagesRead == 0 || poolStats.DemandReads != st.PagesRead {
		t.Fatalf("pool reads %d != node accesses %d", poolStats.DemandReads, st.PagesRead)
	}
	_, st2 := doIDs(t, r, q)
	delta := pool.Stats().Sub(poolStats)
	if delta.DemandReads != 0 || delta.Hits != st2.PagesRead {
		t.Errorf("warm re-run: %+v", delta)
	}
}

// TestPagedLayoutOneNodePerPage: each node is a page of its own, in
// pre-order; a leaf's page holds exactly its items' IDs in item order, and
// each item's page is its leaf's.
func TestPagedLayoutOneNodePerPage(t *testing.T) {
	tr, r := paged(t, pagedItems(93, 500, 40), 8)
	nodes, itemsSeen := 0, 0
	var walk func(v rtree.NodeView)
	walk = func(v rtree.NodeView) {
		p := pager.PageID(nodes)
		nodes++
		if v.IsLeaf() {
			var want []int32
			for _, it := range v.Items() {
				want = append(want, it.ID)
				if r.PageOf(it.ID) != p {
					t.Fatalf("item %d is on page %d, its leaf on page %d", it.ID, r.PageOf(it.ID), p)
				}
			}
			itemsSeen += len(want)
			if got := r.Store().Page(p); !slices.Equal(got, want) {
				t.Fatalf("leaf page %d holds %v, want %v", p, got, want)
			}
			return
		}
		for c := 0; c < v.NumChildren(); c++ {
			walk(v.Child(c))
		}
	}
	root, _ := tr.Root()
	walk(root)
	if r.NumPages() != nodes {
		t.Fatalf("pages = %d, nodes = %d", r.NumPages(), nodes)
	}
	if itemsSeen != 500 || r.NumItems() != 500 {
		t.Fatalf("walk saw %d items, index holds %d", itemsSeen, r.NumItems())
	}
}

// TestPagedNilPoolFallsBack: with no pool passed and no source attached, the
// paged form reads its own store and answers as the tree does.
func TestPagedNilPoolFallsBack(t *testing.T) {
	tr, r := paged(t, pagedItems(94, 300, 30), 8)
	q := geom.BoxAround(geom.V(15, 15, 15), 8)
	want, _ := treeIDs(tr, q)
	var got []int32
	r.PagedQuery(q, nil, func(id int32) { got = append(got, id) })
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("nil-pool query found %d IDs, the tree %d", len(got), len(want))
	}
	if ids, _ := doIDs(t, r, q); !slices.Equal(ids, want) {
		t.Fatalf("unsourced Do found %d IDs, the tree %d", len(ids), len(want))
	}
}
