package engine_test

// The zero-alloc hot-path gate: BenchmarkDoHotPath measures allocs/op and
// ns/op for every (contender × kind) Do cell, and TestDoHotPathAllocs pins
// the cells the pooled-scratch rework made allocation-free. The assertions
// are skipped under the race detector (its instrumentation allocates) — CI
// runs this package both ways, so the gate still runs on every push.

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
// Range/KNN/Point/WithinDistance execution on the flat, grid and (since the
// per-level stats record became an inline array) rtree contenders — and pins
// per-cell ceilings on the cells with irreducible allocations: the rtree
// KNN candidate set and the sharded scatter's per-shard gather state. The
// ceilings can only shrink.
func TestDoHotPathAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc gate runs in uninstrumented builds")
	}
	items := testItems(t, 24, 4242)
	indexes := buildIndexes(t, items)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ctx := context.Background()
	sink := func(engine.Hit) {}
	// ceilings["name/kind"] is the per-op allocation budget; absent means 0.
	ceilings := map[string]float64{
		"rtree/knn":      9,
		"sharded/range":  19,
		"sharded/knn":    5,
		"sharded/point":  6,
		"sharded/within": 18,
	}
	for _, ix := range indexes {
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
			cell := fmt.Sprintf("%s/%s", ix.Name(), req.Kind)
			if got > ceilings[cell] {
				t.Errorf("%s: %.1f allocs/op, budget %.0f", cell, got, ceilings[cell])
			}
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
