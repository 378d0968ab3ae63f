package engine_test

// The engine differential harness: for every index behind
// engine.SpatialIndex, a Range request through Do — and a batch of them
// through Session.DoBatch at any worker count — must emit exactly the hits,
// in the same order, with the same per-query stats, as a direct serial call
// — and all contenders must agree on the result set, with the direct
// flat/rtree implementations as oracles.

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"testing"

	"neurospatial/internal/circuit"
	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/prefetch"
	"neurospatial/internal/rtree"
)

// Compile-time interface checks: every engine index is a SpatialIndex with
// paged storage, and serves walkthroughs with prefetching.
var (
	_ engine.Paged    = (*engine.Flat)(nil)
	_ engine.Paged    = (*engine.RTree)(nil)
	_ engine.Paged    = (*engine.Grid)(nil)
	_ engine.Paged    = (*engine.Sharded)(nil)
	_ prefetch.Served = (*engine.Flat)(nil)
	_ prefetch.Served = (*engine.RTree)(nil)
	_ prefetch.Served = (*engine.Grid)(nil)
	_ prefetch.Served = (*engine.Sharded)(nil)
	_ prefetch.Served = (*flat.Index)(nil)
)

// testItems builds a deterministic item set from a seeded tissue circuit.
func testItems(t testing.TB, neurons int, seed int64) []rtree.Item {
	t.Helper()
	p := circuit.DefaultParams()
	p.Neurons = neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	p.Seed = seed
	c, err := circuit.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]rtree.Item, len(c.Elements))
	for i := range c.Elements {
		items[i] = rtree.Item{Box: c.Elements[i].Bounds(), ID: c.Elements[i].ID}
	}
	return items
}

func testQueries(vol geom.AABB, n int) []geom.AABB {
	c := vol.Center()
	span := vol.Size().Scale(0.3)
	out := make([]geom.AABB, n)
	for i := range out {
		off := geom.V(
			span.X*float64(i%3-1)*0.5,
			span.Y*float64((i/3)%3-1)*0.5,
			span.Z*float64((i/9)%3-1)*0.5,
		)
		out[i] = geom.BoxAround(c.Add(off), 10+float64(i))
	}
	return out
}

func buildIndexes(t testing.TB, items []rtree.Item) []engine.SpatialIndex {
	t.Helper()
	indexes := []engine.SpatialIndex{
		engine.NewFlat(flat.DefaultOptions()),
		engine.NewRTree(0),
		engine.NewGrid(engine.GridOptions{}),
		engine.NewSharded(engine.ShardedOptions{Shards: 3}),
	}
	for _, ix := range indexes {
		if err := ix.Build(items); err != nil {
			t.Fatalf("%s: %v", ix.Name(), err)
		}
	}
	return indexes
}

type hit struct {
	q  int
	id int32
}

// doRange runs one Range request through ix.Do and returns the hit IDs (in
// Do's canonical ascending order) with the query's stats.
func doRange(t testing.TB, ix engine.SpatialIndex, q geom.AABB) ([]int32, engine.QueryStats) {
	t.Helper()
	var ids []int32
	st, err := ix.Do(context.Background(), engine.RangeRequest(q), func(h engine.Hit) { ids = append(ids, h.ID) })
	if err != nil {
		t.Fatalf("%s: Do(%v): %v", ix.Name(), q, err)
	}
	return ids, st
}

// rangeRequests lifts query boxes into Range requests.
func rangeRequests(qs []geom.AABB) []engine.Request {
	reqs := make([]engine.Request, len(qs))
	for i, q := range qs {
		reqs[i] = engine.RangeRequest(q)
	}
	return reqs
}

// serialRange runs the boxes as a serial loop of Do calls on ix: the
// reference every batched execution must reproduce.
func serialRange(t testing.TB, ix engine.SpatialIndex, qs []geom.AABB) ([]hit, []engine.QueryStats) {
	t.Helper()
	var hits []hit
	sts := make([]engine.QueryStats, 0, len(qs))
	for qi, q := range qs {
		ids, st := doRange(t, ix, q)
		for _, id := range ids {
			hits = append(hits, hit{qi, id})
		}
		sts = append(sts, st)
	}
	return hits, sts
}

// batchRange runs the boxes as one Session.DoBatch and flattens the results
// into the (query, id) stream and per-query stats of serialRange.
func batchRange(t testing.TB, sess *engine.Session, qs []geom.AABB, workers int) ([]hit, []engine.QueryStats, []engine.Result) {
	t.Helper()
	results, err := sess.DoBatch(context.Background(), rangeRequests(qs), workers)
	if err != nil {
		t.Fatalf("DoBatch workers=%d: %v", workers, err)
	}
	var hits []hit
	sts := make([]engine.QueryStats, len(results))
	for qi := range results {
		for _, h := range results[qi].Hits {
			hits = append(hits, hit{qi, h.ID})
		}
		sts[qi] = results[qi].Stats
	}
	return hits, sts, results
}

// TestEngineIndexesAgree asserts all three contenders report the same hit
// set per query, with direct flat and rtree implementations as oracles.
func TestEngineIndexesAgree(t *testing.T) {
	items := testItems(t, 12, 1001)
	indexes := buildIndexes(t, items)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))

	oracleTree, err := rtree.STR(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	queries := testQueries(vol, 18)
	for qi, q := range queries {
		var oracle []int32
		oracleTree.Query(q, func(it rtree.Item) { oracle = append(oracle, it.ID) })
		sort.Slice(oracle, func(i, j int) bool { return oracle[i] < oracle[j] })
		if len(oracle) > 0 {
			nonEmpty++
		}
		for _, ix := range indexes {
			got, st := doRange(t, ix, q)
			if !reflect.DeepEqual(got, oracle) {
				t.Errorf("query %d: %s returned %d hits, oracle %d (or content differs)",
					qi, ix.Name(), len(got), len(oracle))
			}
			if st.Results != int64(len(got)) {
				t.Errorf("query %d: %s stats.Results = %d, hits %d", qi, ix.Name(), st.Results, len(got))
			}
		}
	}
	if nonEmpty < len(queries)/2 {
		t.Errorf("only %d of %d queries hit data — workload degenerate", nonEmpty, len(queries))
	}
}

// TestEngineMatchesDirectCalls asserts the engine wrappers reproduce the
// direct index calls exactly: same hits (Do emits them in ascending ID, the
// direct calls in native order, so the direct side is sorted) and the same
// native stats under the documented mapping.
func TestEngineMatchesDirectCalls(t *testing.T) {
	items := testItems(t, 12, 2002)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 12)

	t.Run("flat", func(t *testing.T) {
		direct, err := flat.Build(items, flat.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ix := engine.WrapFlat(direct)
		for qi, q := range queries {
			var want []int32
			ds := direct.Query(q, nil, func(id int32) { want = append(want, id) })
			slices.Sort(want)
			got, es := doRange(t, ix, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d: hit set diverged from direct call", qi)
			}
			if es.IndexReads != ds.SeedNodeAccesses || es.PagesRead != ds.PagesRead ||
				es.Reseeds != ds.Reseeds || es.EntriesTested != ds.EntriesTested ||
				es.Results != ds.Results {
				t.Errorf("query %d: engine stats %+v, direct %+v", qi, es, ds)
			}
		}
	})

	t.Run("rtree", func(t *testing.T) {
		direct, err := rtree.STR(items, 0)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := engine.WrapRTree(direct)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			var want []int32
			ds := direct.Query(q, func(it rtree.Item) { want = append(want, it.ID) })
			slices.Sort(want)
			got, es := doRange(t, ix, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d: hit set diverged from direct call", qi)
			}
			if es.PagesRead != ds.NodeAccesses() || es.EntriesTested != ds.EntriesTested ||
				es.Results != ds.Results || !reflect.DeepEqual(es.NodesPerLevel(), ds.NodesPerLevel()) {
				t.Errorf("query %d: engine stats %+v, direct %+v", qi, es, ds)
			}
		}
	})
}

// TestEngineBatchMatchesSerial is the acceptance differential: for each
// index, Session.DoBatch at any worker count emits exactly the hits and
// per-query stats of the serial Do loop — also when reads go through a
// shared buffer pool.
func TestEngineBatchMatchesSerial(t *testing.T) {
	items := testItems(t, 12, 3003)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 24)

	for _, ix := range buildIndexes(t, items) {
		t.Run(ix.Name(), func(t *testing.T) {
			want, wantStats := serialRange(t, ix, queries)
			sess, err := engine.Open(engine.WithIndex(ix))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4, 7} {
				got, gotStats, _ := batchRange(t, sess, queries, w)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: hit sequence diverged from serial (%d vs %d hits)",
						w, len(got), len(want))
				}
				for qi := range wantStats {
					if !reflect.DeepEqual(gotStats[qi], wantStats[qi]) {
						t.Errorf("workers=%d: query %d stats %+v, want %+v",
							w, qi, gotStats[qi], wantStats[qi])
					}
				}
			}

			// Through a shared pool the hit stream must still match; the
			// pool must see traffic and keep its accounting identity.
			paged := ix.(engine.Paged)
			if paged.Store() == nil {
				t.Fatal("no page store under the index")
			}
			for _, w := range []int{1, 4} {
				pool, err := pager.NewBufferPool(paged.Store(), 16)
				if err != nil {
					t.Fatal(err)
				}
				paged.SetSource(pool)
				got, _, _ := batchRange(t, sess, queries, w)
				paged.SetSource(nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pooled workers=%d: hit sequence diverged", w)
				}
				st := pool.Stats()
				if st.Hits+st.DemandReads == 0 {
					t.Errorf("pooled workers=%d: pool saw no traffic", w)
				}
			}
		})
	}
}

// TestPlannerRoutesAndMatches asserts the planner-routed batch equals the
// chosen index's own serial output, that every contender is costed, and
// that learned history replaces probing.
func TestPlannerRoutesAndMatches(t *testing.T) {
	items := testItems(t, 10, 4004)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 16)
	reqs := rangeRequests(queries)
	indexes := buildIndexes(t, items)
	p := engine.NewPlanner(indexes...)

	d := p.PlanKind(engine.Range, reqs)
	if d.Index == nil {
		t.Fatal("no index chosen")
	}
	if len(d.CostPerQuery) != len(indexes) {
		t.Fatalf("costed %d contenders, want %d", len(d.CostPerQuery), len(indexes))
	}
	for name, cost := range d.CostPerQuery {
		if cost <= 0 {
			t.Errorf("contender %s estimated at %v reads/query", name, cost)
		}
		if got := d.CostPerQuery[d.Index.Name()]; got > cost {
			t.Errorf("chose %s at %v despite %s at %v", d.Index.Name(), got, name, cost)
		}
	}

	// Routed output == chosen index direct serial output. A batch's observed
	// stats may legitimately re-rank the contenders (the probe sample is
	// only a prefix of the batch), so run one batch to feed the history,
	// then predict the next choice with PlanKind — it reads history without
	// mutating it — and diff the next batch against that index.
	sess, err := engine.Open(engine.WithPlanner(p))
	if err != nil {
		t.Fatal(err)
	}
	batchRange(t, sess, queries, 4)
	p.SetEpoch(1) // drop the cached decision so the next batch re-plans
	next := p.PlanKind(engine.Range, reqs)
	if len(next.Probed) != 0 {
		t.Fatalf("replan re-probed %v despite learned history", next.Probed)
	}
	want, wantStats := serialRange(t, next.Index, queries)
	got, gotStats, results := batchRange(t, sess, queries, 2)
	if results[0].Index != next.Index.Name() {
		t.Fatalf("routed batch diverged from PlanKind: %s then %s", next.Index.Name(), results[0].Index)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("planner-routed hits diverged from chosen index's serial run")
	}
	for qi := range wantStats {
		if gotStats[qi].Results != wantStats[qi].Results || gotStats[qi].PagesRead != wantStats[qi].PagesRead {
			t.Errorf("query %d: routed stats diverged", qi)
		}
	}
}

// TestPlannerSequenceRouting plans a walkthrough-like box series.
func TestPlannerSequenceRouting(t *testing.T) {
	items := testItems(t, 8, 5005)
	indexes := buildIndexes(t, items)
	p := engine.NewPlanner(indexes...)
	// A short straight walkthrough across the middle of the volume.
	boxes := make([]geom.AABB, 10)
	for i := range boxes {
		boxes[i] = geom.BoxAround(geom.V(40+float64(i)*12, 100, 100), 15)
	}
	d := p.PlanKind(engine.Range, rangeRequests(boxes))
	if d.Index == nil || len(d.CostPerQuery) != len(indexes) {
		t.Fatalf("bad decision %+v", d)
	}
	if d.String() == "" {
		t.Error("empty decision rendering")
	}
}

// TestEngineWalkthroughUnderAnyIndex runs the prefetch simulator over every
// engine index: the paged-storage layer beneath each one serves the same
// walkthrough, and demand reads plus hits must cover every step's pages.
func TestEngineWalkthroughUnderAnyIndex(t *testing.T) {
	items := testItems(t, 10, 6006)
	boxes := make([]geom.AABB, 12)
	for i := range boxes {
		boxes[i] = geom.BoxAround(geom.V(30+float64(i)*12, 100, 100), 15)
	}
	var results []int64
	for _, ix := range buildIndexes(t, items) {
		served := ix.(prefetch.Served)
		sim := &prefetch.Simulator{
			Index:     served,
			Segment:   func(id int32) geom.Segment { return geom.Segment{} },
			Cost:      pager.DefaultCostModel(),
			ThinkTime: 100,
			PoolPages: served.NumPages(),
		}
		run, err := sim.Run(prefetch.None{}, boxes)
		if err != nil {
			t.Fatalf("%s: %v", ix.Name(), err)
		}
		if run.DemandReads == 0 {
			t.Errorf("%s: walkthrough issued no demand reads", ix.Name())
		}
		results = append(results, run.Elements)
	}
	// Every index serves the same elements across the walkthrough.
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Errorf("index %d returned %d elements over the walkthrough, index 0 returned %d",
				i, results[i], results[0])
		}
	}
}
