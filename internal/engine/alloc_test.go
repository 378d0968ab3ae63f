package engine_test

// The zero-alloc hot-path gate: BenchmarkDoHotPath measures allocs/op and
// ns/op for every (contender × kind) Do cell, and TestDoHotPathAllocs pins
// the cells the pooled-scratch rework made allocation-free — raw-contender
// Do only. A dataset session serves the same requests through snapshot views,
// whose Do drains the lazy base∪delta stream and allocates per request; those
// cells carry measured ceilings, not zeros. The assertions are skipped under
// the race detector (its instrumentation allocates) — CI runs this package
// both ways, so the gate still runs on every push.

import (
	"context"
	"fmt"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/race"
)

// hotPathRequests is one request per kind, sized against the test tissue so
// every kind reports hits (an empty traversal would gate nothing).
func hotPathRequests(vol geom.AABB) []engine.Request {
	c := vol.Center()
	return []engine.Request{
		engine.RangeRequest(geom.BoxAround(c, 40)),
		engine.KNNRequest(c, 8),
		engine.PointRequest(c),
		engine.WithinDistanceRequest(c, 35),
	}
}

// BenchmarkDoHotPath covers every (contender × kind) Do cell. Run with
// -benchmem: allocs/op is the number TestDoHotPathAllocs puts ceilings on.
func BenchmarkDoHotPath(b *testing.B) {
	items := testItems(b, 24, 4242)
	indexes := buildIndexes(b, items)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ctx := context.Background()
	sink := func(engine.Hit) {}
	for _, ix := range indexes {
		for _, req := range hotPathRequests(vol) {
			b.Run(fmt.Sprintf("%s/%s", ix.Name(), req.Kind), func(b *testing.B) {
				if _, err := ix.Do(ctx, req, sink); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ix.Do(ctx, req, sink); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestDoHotPathAllocs asserts the zero-alloc cells stay at zero — every
// Range/KNN/Point/WithinDistance execution on a raw flat, grid, rtree or
// sharded contender, bar the two kNN cells with irreducible allocations: the
// rtree's candidate set and the sharded gather's shard order and per-shard
// translation closures.
//
// The zero-alloc guarantee covers raw-contender Do, not dataset sessions:
// every WithDataset session (all the bench/ workloads) reaches a contender
// through a snapshot view, whose Range/Point/WithinDistance drain the
// streaming pipeline (iterators, merge state, the buffered page of hits). The
// view/… cells put a ceiling on that path as measured, at epoch 0 and over a
// 1000-entry overlay — the overlay adds nothing. All ceilings can only shrink.
func TestDoHotPathAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc gate runs in uninstrumented builds")
	}
	items := testItems(t, 24, 4242)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ctx := context.Background()
	sink := func(engine.Hit) {}
	// ceilings["name/kind"] is the per-op allocation budget; absent means 0.
	ceilings := map[string]float64{
		"rtree/knn":   9,
		"sharded/knn": 3,

		"view/flat/range": 27, "view/flat/knn": 2, "view/flat/point": 14, "view/flat/within": 26,
		"view/rtree/range": 22, "view/rtree/knn": 11, "view/rtree/point": 13, "view/rtree/within": 21,
		"view/grid/range": 35, "view/grid/knn": 2, "view/grid/point": 16, "view/grid/within": 34,
		"view/sharded/range": 54, "view/sharded/knn": 7, "view/sharded/point": 21, "view/sharded/within": 52,
	}
	check := func(prefix string, ix engine.SpatialIndex) {
		for _, req := range hotPathRequests(vol) {
			req := req
			// Warm the pools: first executions stock them.
			for i := 0; i < 3; i++ {
				if _, err := ix.Do(ctx, req, sink); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(50, func() {
				if _, err := ix.Do(ctx, req, sink); err != nil {
					t.Fatal(err)
				}
			})
			cell := fmt.Sprintf("%s%s/%s", prefix, ix.Name(), req.Kind)
			if got > ceilings[cell] {
				t.Errorf("%s: %.1f allocs/op, budget %.0f", cell, got, ceilings[cell])
			}
		}
	}
	for _, ix := range buildIndexes(t, items) {
		check("", ix)
	}

	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat", "rtree", "grid", "sharded"}, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := ds.Current()
	tx := ds.Begin()
	for i := 0; i < 1000; i++ {
		tx.Update(items[i*3].ID, items[i*3].Box)
	}
	churned, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []*engine.Snapshot{epoch0, churned} {
		for _, view := range snap.Indexes() {
			check("view/", view)
		}
	}
}

// TestViewKNNAllocsUnderChurn pins the kNN cell of a snapshot view with a live
// overlay: base and delta candidates meet in one pooled accumulator, so the
// request's allocations do not grow with the overlay — what is left is the
// closure that filters the base's hits and the tombstone counter it captures.
func TestViewKNNAllocsUnderChurn(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc gate runs in uninstrumented builds")
	}
	items := testItems(t, 24, 4242)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{Contenders: []string{"flat"}, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	tx := ds.Begin()
	for i := 0; i < 1000; i++ {
		tx.Update(items[i*3].ID, items[i*3].Box)
	}
	snap, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	view, req := snap.Index("flat"), engine.KNNRequest(vol.Center(), 8)
	run := func() {
		st, err := view.Do(context.Background(), req, func(engine.Hit) {})
		if err != nil {
			t.Fatal(err)
		}
		if st.DeltaEntries == 0 || st.Tombstones == 0 {
			t.Fatalf("degenerate cell: the overlay did no work (%+v)", st)
		}
	}
	for i := 0; i < 3; i++ {
		run() // stock the pools
	}
	if got := testing.AllocsPerRun(50, run); got > 2 {
		t.Errorf("view kNN over a 1000-entry overlay: %.1f allocs/op, budget 2", got)
	}
}
