package flat

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"neurospatial/internal/circuit"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// testItems builds items from a small deterministic circuit so the data has
// realistic branch structure.
func testItems(t testing.TB, neurons int) ([]rtree.Item, *circuit.Circuit) {
	p := circuit.DefaultParams()
	p.Neurons = neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(250, 250, 250))
	c, err := circuit.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]rtree.Item, len(c.Elements))
	for i := range c.Elements {
		items[i] = rtree.Item{Box: c.Elements[i].Bounds(), ID: c.Elements[i].ID}
	}
	return items, c
}

func TestBuildValidation(t *testing.T) {
	items := []rtree.Item{{Box: geom.BoxAround(geom.V(0, 0, 0), 1), ID: 5}}
	if _, err := Build(items, DefaultOptions()); err == nil {
		t.Error("non-dense IDs accepted")
	}
	if _, err := Build(nil, DefaultOptions()); err != nil {
		t.Errorf("empty build failed: %v", err)
	}
}

func TestQueryEqualsBruteForce(t *testing.T) {
	items, _ := testItems(t, 12)
	idx, err := Build(items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		q := geom.BoxAround(
			geom.V(rng.Float64()*250, rng.Float64()*250, rng.Float64()*250),
			rng.Float64()*30+2)
		got := make(map[int32]bool)
		stats := idx.Query(q, nil, func(id int32) {
			if got[id] {
				t.Fatal("duplicate result")
			}
			got[id] = true
		})
		want := 0
		for _, it := range items {
			w := it.Box.Intersects(q)
			if w {
				want++
			}
			if w != got[it.ID] {
				t.Fatalf("trial %d: item %d got %v want %v", trial, it.ID, got[it.ID], w)
			}
		}
		if int(stats.Results) != want {
			t.Fatalf("stats.Results = %d, want %d", stats.Results, want)
		}
	}
}

func TestEmptyRangeQuery(t *testing.T) {
	items, _ := testItems(t, 6)
	idx, err := Build(items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats := idx.Query(geom.BoxAround(geom.V(1e5, 1e5, 1e5), 5), nil, func(int32) {
		t.Error("empty range produced a result")
	})
	if stats.PagesRead != 0 {
		t.Errorf("empty range read %d pages", stats.PagesRead)
	}
	if stats.SeedNodeAccesses == 0 {
		t.Error("seed walk not counted")
	}
}

func TestEmptyIndexQuery(t *testing.T) {
	idx, err := Build(nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats := idx.Query(geom.BoxAround(geom.V(0, 0, 0), 1), nil, func(int32) {
		t.Error("result from empty index")
	})
	if stats.TotalReads() != 0 {
		t.Error("empty index performed I/O")
	}
}

func TestPageLayout(t *testing.T) {
	items, _ := testItems(t, 10)
	opts := DefaultOptions()
	opts.PageSize = 32
	idx, err := Build(items, opts)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumItems() != len(items) {
		t.Fatalf("NumItems = %d", idx.NumItems())
	}
	wantPages := (len(items) + 31) / 32
	if idx.NumPages() != wantPages {
		t.Fatalf("NumPages = %d, want %d", idx.NumPages(), wantPages)
	}
	// Every item is on exactly one page, inside that page's MBR.
	seen := make(map[int32]bool)
	for p := 0; p < idx.NumPages(); p++ {
		box := idx.PageBox(pager.PageID(p))
		for _, id := range idx.Store().Page(pager.PageID(p)) {
			if seen[id] {
				t.Fatalf("item %d on two pages", id)
			}
			seen[id] = true
			if idx.PageOf(id) != pager.PageID(p) {
				t.Fatalf("PageOf(%d) = %d, want %d", id, idx.PageOf(id), p)
			}
			if !box.ContainsBox(items[id].Box) {
				t.Fatalf("item %d escapes page MBR", id)
			}
		}
	}
	if len(seen) != len(items) {
		t.Fatalf("pages hold %d items, want %d", len(seen), len(items))
	}
}

// recordingSource is a PageSource that logs the pages read through it.
type recordingSource struct {
	pager.PageSource
	reads []pager.PageID
}

func (r *recordingSource) ReadPage(p pager.PageID) []int32 {
	r.reads = append(r.reads, p)
	return r.PageSource.ReadPage(p)
}

// A range query reads each page PagesInRange names exactly once, in that
// order, and no other: walkthroughs, the page stream and Figure 4's frame
// consume this order.
func TestRangeReadsPagesInRangeOnceInOrder(t *testing.T) {
	items, _ := testItems(t, 12)
	idx, err := Build(items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	qs := []geom.AABB{
		geom.BoxAround(geom.V(125, 125, 125), 50),
		geom.BoxAround(geom.V(125, 125, 125), 0), // a point
		geom.BoxAround(geom.V(1e5, 1e5, 1e5), 5), // outside the data
		idx.Bounds(),
	}
	for i := 0; i < 30; i++ {
		qs = append(qs, geom.BoxAround(
			geom.V(rng.Float64()*250, rng.Float64()*250, rng.Float64()*250),
			rng.Float64()*40))
	}
	for qi, q := range qs {
		want := idx.PagesInRange(q)
		src := &recordingSource{PageSource: idx.Store()}
		st, err := idx.QueryVia(context.Background(), q, src, func(int32) {})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(src.reads, want) {
			t.Fatalf("query %d: read pages %v, PagesInRange %v", qi, src.reads, want)
		}
		if st.PagesRead != int64(len(want)) {
			t.Fatalf("query %d: PagesRead %d, %d pages named", qi, st.PagesRead, len(want))
		}
		if st.SeedNodeAccesses == 0 {
			t.Fatalf("query %d: seed walk not counted", qi)
		}
	}
	if got := idx.PagesInRange(idx.Bounds()); len(got) != idx.NumPages() {
		t.Fatalf("a query over the bounds names %d of %d pages", len(got), idx.NumPages())
	}
}

func TestBufferPoolIntegration(t *testing.T) {
	items, _ := testItems(t, 10)
	idx, err := Build(items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := pager.NewBufferPool(idx.Store(), idx.NumPages())
	if err != nil {
		t.Fatal(err)
	}
	q := geom.BoxAround(geom.V(125, 125, 125), 40)
	s1 := idx.Query(q, pool, func(int32) {})
	st1 := pool.Stats()
	if st1.DemandReads != s1.PagesRead {
		t.Fatalf("pool reads %d, pages read %d", st1.DemandReads, s1.PagesRead)
	}
	// Re-running hits the pool for every page.
	idx.Query(q, pool, func(int32) {})
	st2 := pool.Stats().Sub(st1)
	if st2.DemandReads != 0 || st2.Hits != s1.PagesRead {
		t.Errorf("warm re-run: %+v", st2)
	}
}

func TestPagesInRange(t *testing.T) {
	items, _ := testItems(t, 10)
	idx, err := Build(items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := geom.BoxAround(geom.V(125, 125, 125), 30)
	pages := idx.PagesInRange(q)
	want := make(map[pager.PageID]bool)
	for p := 0; p < idx.NumPages(); p++ {
		if idx.PageBox(pager.PageID(p)).Intersects(q) {
			want[pager.PageID(p)] = true
		}
	}
	if len(pages) != len(want) {
		t.Fatalf("PagesInRange = %d, want %d", len(pages), len(want))
	}
	for _, p := range pages {
		if !want[p] {
			t.Fatal("PagesInRange returned non-intersecting page")
		}
	}
}

// FLAT must agree with an element-level R-tree on every query (the two
// stations of the demo show identical results, different costs).
func TestAgreesWithRTree(t *testing.T) {
	items, _ := testItems(t, 12)
	idx, err := Build(items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rtree.STR(items, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 25; trial++ {
		q := geom.BoxAround(
			geom.V(rng.Float64()*250, rng.Float64()*250, rng.Float64()*250),
			rng.Float64()*25+2)
		flatIDs := make(map[int32]bool)
		idx.Query(q, nil, func(id int32) { flatIDs[id] = true })
		treeIDs := make(map[int32]bool)
		tr.Query(q, func(it rtree.Item) { treeIDs[it.ID] = true })
		if len(flatIDs) != len(treeIDs) {
			t.Fatalf("trial %d: FLAT %d vs R-tree %d results", trial, len(flatIDs), len(treeIDs))
		}
		for id := range treeIDs {
			if !flatIDs[id] {
				t.Fatalf("trial %d: FLAT missed %d", trial, id)
			}
		}
	}
}

// Two distant clusters inside one query range: the answer is exact however
// the pages group.
func TestQueryAcrossDistantClusters(t *testing.T) {
	var items []rtree.Item
	id := int32(0)
	for i := 0; i < 200; i++ {
		items = append(items, rtree.Item{
			Box: geom.BoxAround(geom.V(float64(i%10), float64((i/10)%10), float64(i/100)), 0.6),
			ID:  id,
		})
		id++
	}
	for i := 0; i < 200; i++ {
		items = append(items, rtree.Item{
			Box: geom.BoxAround(geom.V(1000+float64(i%10), float64((i/10)%10), float64(i/100)), 0.6),
			ID:  id,
		})
		id++
	}
	idx, err := Build(items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Box(geom.V(-5, -5, -5), geom.V(1015, 15, 15))
	got := make(map[int32]bool)
	idx.Query(q, nil, func(id int32) {
		if got[id] {
			t.Fatalf("item %d reported twice", id)
		}
		got[id] = true
	})
	want := 0
	for _, it := range items {
		if it.Box.Intersects(q) != got[it.ID] {
			t.Fatalf("item %d: got %v, brute force %v", it.ID, got[it.ID], it.Box.Intersects(q))
		}
		if got[it.ID] {
			want++
		}
	}
	if want != 400 {
		t.Fatalf("got %d of 400 results across the clusters", want)
	}
}
