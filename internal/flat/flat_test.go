package flat

import (
	"math"
	"math/rand"
	"reflect"
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
		t.Error("seed descent not counted")
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

func TestNeighborhoodGraph(t *testing.T) {
	items, _ := testItems(t, 10)
	idx, err := Build(items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := idx.GraphStats()
	if st.Pages != idx.NumPages() {
		t.Fatalf("graph pages = %d", st.Pages)
	}
	if st.AvgDegree < 1 {
		t.Errorf("avg degree %v too low for dense data", st.AvgDegree)
	}
	// Symmetry.
	for p := 0; p < idx.NumPages(); p++ {
		for _, nb := range idx.Neighbors(pager.PageID(p)) {
			found := false
			for _, back := range idx.Neighbors(nb) {
				if back == pager.PageID(p) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not symmetric", p, nb)
			}
		}
	}
	// Neighbor MBRs actually come within tolerance.
	for p := 0; p < idx.NumPages(); p++ {
		pb := idx.PageBox(pager.PageID(p))
		for _, nb := range idx.Neighbors(pager.PageID(p)) {
			if !pb.Expand(1e-9).Intersects(idx.PageBox(nb)) {
				t.Fatalf("neighbor pages %d,%d do not touch", p, nb)
			}
		}
	}
	// Dense circuit data should form a single crawlable component.
	if st.Components != 1 {
		t.Errorf("graph has %d components on dense data", st.Components)
	}
}

func TestCrawlStatsAndTrace(t *testing.T) {
	items, _ := testItems(t, 12)
	idx, err := Build(items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := geom.BoxAround(geom.V(125, 125, 125), 50)
	stats := idx.QueryTraced(q, nil, func(int32) {})
	if stats.Results == 0 {
		t.Fatal("central query found nothing")
	}
	if int64(len(stats.CrawlOrder)) != stats.PagesRead {
		t.Fatalf("trace %d entries, %d pages read", len(stats.CrawlOrder), stats.PagesRead)
	}
	// Each crawled page intersects the range and appears once.
	seen := make(map[pager.PageID]bool)
	for _, p := range stats.CrawlOrder {
		if seen[p] {
			t.Fatal("page crawled twice")
		}
		seen[p] = true
		if !idx.PageBox(p).Intersects(q) {
			t.Fatal("crawled page outside range")
		}
	}
	// Every crawled page after the first neighbors an earlier one: the
	// crawl is connected (Figure 4's animation property).
	for i, p := range stats.CrawlOrder {
		if i == 0 {
			continue
		}
		connected := false
		for _, nb := range idx.Neighbors(p) {
			for _, prev := range stats.CrawlOrder[:i] {
				if nb == prev {
					connected = true
					break
				}
			}
			if connected {
				break
			}
		}
		if !connected && stats.Reseeds == 0 {
			t.Fatalf("crawl order disconnected at %d", i)
		}
	}
	// Untraced query records no order.
	stats2 := idx.Query(q, nil, func(int32) {})
	if stats2.CrawlOrder != nil {
		t.Error("untraced query recorded crawl order")
	}
	if stats2.PagesRead != stats.PagesRead || stats2.Results != stats.Results {
		t.Error("traced and untraced queries disagree")
	}
}

func TestSeedCostIndependentOfResultSize(t *testing.T) {
	items, _ := testItems(t, 16)
	idx, err := Build(items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	small := idx.Query(geom.BoxAround(geom.V(125, 125, 125), 5), nil, func(int32) {})
	large := idx.Query(geom.BoxAround(geom.V(125, 125, 125), 80), nil, func(int32) {})
	if large.Results <= small.Results {
		t.Skip("query sizing did not produce growth")
	}
	// The seed phase costs about tree height for both; it must not grow
	// with the result.
	if large.SeedNodeAccesses > small.SeedNodeAccesses*3+6 {
		t.Errorf("seed cost grew with result: %d -> %d",
			small.SeedNodeAccesses, large.SeedNodeAccesses)
	}
	// Crawl I/O is bounded by pages holding results plus boundary pages.
	if large.PagesRead > large.Results {
		t.Errorf("pages read (%d) exceeded results (%d) on a dense query",
			large.PagesRead, large.Results)
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
		t.Fatalf("pool reads %d, crawl pages %d", st1.DemandReads, s1.PagesRead)
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

// Sparse pathological data exercises the re-seed path: two distant clusters
// inside one query range.
func TestReseedAcrossComponents(t *testing.T) {
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
	if idx.GraphStats().Components < 2 {
		t.Skip("clusters unexpectedly connected")
	}
	q := geom.Box(geom.V(-5, -5, -5), geom.V(1015, 15, 15))
	got := make(map[int32]bool)
	stats := idx.Query(q, nil, func(id int32) { got[id] = true })
	if len(got) != 400 {
		t.Fatalf("got %d of 400 results across components", len(got))
	}
	if stats.Reseeds == 0 {
		t.Error("no re-seed despite disconnected components")
	}
}

// A positive tolerance bridges hairline gaps: the two-cluster dataset from
// TestReseedAcrossComponents stays disconnected, but a tolerance larger than
// the gap unifies closer clusters.
func TestToleranceBridgesGaps(t *testing.T) {
	var items []rtree.Item
	id := int32(0)
	for c := 0; c < 2; c++ {
		base := float64(c) * 14 // clusters ~4 units apart after extent
		for i := 0; i < 128; i++ {
			items = append(items, rtree.Item{
				Box: geom.BoxAround(geom.V(base+float64(i%4), float64((i/4)%4), float64(i/16)), 0.5),
				ID:  id,
			})
			id++
		}
	}
	strict, err := Build(items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Tolerance = 30
	loose, err := Build(items, opts)
	if err != nil {
		t.Fatal(err)
	}
	if strict.GraphStats().Components <= loose.GraphStats().Components &&
		strict.GraphStats().Components != 1 {
		t.Errorf("tolerance did not reduce components: %d vs %d",
			strict.GraphStats().Components, loose.GraphStats().Components)
	}
	// Results identical either way.
	q := geom.Box(geom.V(-2, -2, -2), geom.V(20, 6, 10))
	a := map[int32]bool{}
	strict.Query(q, nil, func(id int32) { a[id] = true })
	b := map[int32]bool{}
	loose.Query(q, nil, func(id int32) { b[id] = true })
	if len(a) != len(b) {
		t.Fatalf("tolerance changed results: %d vs %d", len(a), len(b))
	}

	// A NaN tolerance is no tolerance: the graph and the crawl are those of
	// Tolerance 0, not a graph of NaN-expanded MBRs that links nothing.
	opts.Tolerance = math.NaN()
	nan, err := Build(items, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := nan.GraphStats(), strict.GraphStats(); got != want {
		t.Fatalf("NaN tolerance: graph %+v, at tolerance 0 %+v", got, want)
	}
	if got, want := nan.Query(q, nil, func(int32) {}), strict.Query(q, nil, func(int32) {}); !reflect.DeepEqual(got, want) {
		t.Fatalf("NaN tolerance: query stats %+v, at tolerance 0 %+v", got, want)
	}
}
