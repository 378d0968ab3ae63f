package engine_test

// The allocation contract of the hot path, measured: BenchmarkDoHotPath
// reports allocs/op and ns/op for every (contender × kind) Do cell, and
// TestDoHotPathAllocs is the one gate on it — no annotation, AST pattern or
// compiler diagnostic stands beside it; a function is on the hot path because
// a cell executes it. The cells: Do on a raw contender and Do on a dataset's
// snapshot view, which is the same executor with the overlay as an argument —
// Range, Point and WithinDistance at zero on both, kNN at its measured
// handful; the same at zero reading through an attached pager.BufferPool
// (pooled/…) and through the page segments of a reopened durable dataset
// (durable/…); a paginated Do (page/…), which slices the page out of the
// full execution's pooled hit buffer, at zero for every kind. Session.Do on
// top of a view allocates the Result it returns, and Session.DoBatch
// (batch/…) buffers per worker; those cells carry measured ceilings. The assertions are skipped under the race detector (its
// instrumentation allocates) — CI runs this package both ways, so the gate
// still runs on every push.

import (
	"context"
	"fmt"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
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

// BenchmarkDoHotPath covers every (contender × kind) Do cell, and the page/…
// cells of TestDoHotPathAllocs: Do with Limit 10, a slice of the full
// execution. Run with -benchmem: allocs/op is the number TestDoHotPathAllocs
// puts ceilings on.
func BenchmarkDoHotPath(b *testing.B) {
	items := testItems(b, 24, 4242)
	indexes := buildIndexes(b, items)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ctx := context.Background()
	sink := func(engine.Hit) {}
	bench := func(name string, ix engine.SpatialIndex, req engine.Request) {
		b.Run(name, func(b *testing.B) {
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
	for _, ix := range indexes {
		for _, req := range hotPathRequests(vol) {
			bench(fmt.Sprintf("%s/%s", ix.Name(), req.Kind), ix, req)
		}
	}
	for _, ix := range indexes {
		for _, req := range hotPathRequests(vol) {
			req.Limit = 10
			bench(fmt.Sprintf("page/%s/%s", ix.Name(), req.Kind), ix, req)
		}
	}
}

// TestDoHotPathAllocs asserts the zero-alloc cells stay at zero — every
// Range/KNN/Point/WithinDistance execution on a raw flat, grid, rtree or
// sharded contender.
//
// The view/… cells are the same requests through a dataset's snapshot views,
// at epoch 0 and over 1,000- and 10,000-entry overlays. A view runs the
// executor the raw contenders run, with the overlay an argument of it — the
// tombstone filter and delta merge in the scan arm's one emission pass, the
// tombstone filter in the kNN search's offer and the delta offered last — so
// every kind carries the raw ceiling, zero, whatever the overlay's size. The
// session/… cells are Session.Do on a WithDataset session, the
// call users make: what is left there is the Result's own hit slice (grown by
// append, so it scales with log(hits)), the emit closure and its captured
// slice header, and the one-element stats slice handed to the planner.
//
// The remaining cells execute what the raw and view cells do not. pooled/…
// is Range with a pager.BufferPool holding the whole store attached
// (BufferPool.ReadPage, and the shards' shardSource above it): zero.
// durable/… is every kind through the views of a dataset created, closed and
// reopened from its directory, so pages come from durable.SegmentSource's
// frame cache: the view ceilings. page/… is Do with Limit 10: the full
// execution gathered into the pooled hit buffer and the page sliced out of
// it, zero like the unpaginated cells. batch/… is Session.DoBatch of 16
// mixed requests on the dataset session at one and four workers
// (parallel.BatchCtx, ForEach, the pooled segment and error tables).
// deferred/… is every kind through the view of a contender a compaction
// deferred, once its first request has built it: the view forwards through
// the contender's slot, and carries the view ceilings. All ceilings are as
// measured and can only shrink.
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
		"session/range": 13, "session/knn": 6, "session/point": 4, "session/within": 12,

		"batch/workers=1": 144, "batch/workers=4": 158,
	}
	measure := func(cell string, do func() error) {
		// Warm the pools: first executions stock them.
		for i := 0; i < 3; i++ {
			if err := do(); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(50, func() {
			if err := do(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/op", cell, got)
		if got > ceilings[cell] {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", cell, got, ceilings[cell])
		}
	}
	check := func(prefix string, ix engine.SpatialIndex) {
		for _, req := range hotPathRequests(vol) {
			measure(fmt.Sprintf("%s%s/%s", prefix, ix.Name(), req.Kind), func() error {
				_, err := ix.Do(ctx, req, sink)
				return err
			})
		}
	}
	for _, ix := range buildIndexes(t, items) {
		check("", ix)

		paged := ix.(engine.Paged)
		pool, err := pager.NewBufferPool(paged.Store(), paged.Store().NumPages())
		if err != nil {
			t.Fatal(err)
		}
		paged.SetSource(pool)
		rangeReq := hotPathRequests(vol)[0]
		measure(fmt.Sprintf("pooled/%s/range", ix.Name()), func() error {
			_, err := ix.Do(ctx, rangeReq, sink)
			return err
		})
		paged.SetSource(nil)
		if st := pool.Stats(); st.Hits == 0 {
			t.Errorf("pooled/%s/range: the pool saw no hits (%+v)", ix.Name(), st)
		}

		for _, req := range hotPathRequests(vol) {
			req.Limit = 10
			measure(fmt.Sprintf("page/%s/%s", ix.Name(), req.Kind), func() error {
				_, err := ix.Do(ctx, req, sink)
				return err
			})
		}
	}

	// One dataset per overlay size: none (epoch 0), then n delta entries —
	// updates of every stride-th item, which also tombstone its base version,
	// topped up with inserts once half the items are updated.
	opts := engine.DatasetOptions{
		Contenders: []string{"flat", "rtree", "grid", "sharded"}, DisableAutoCompact: true}
	var ds *engine.Dataset
	for _, n := range []int{0, 1000, 10000} {
		var err error
		ds, err = engine.NewDataset(items, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			updates := min(n, len(items)/2)
			tx := ds.Begin()
			for i := 0; i < updates; i++ {
				it := items[i*(len(items)/updates)]
				tx.Update(it.ID, it.Box)
			}
			for i := updates; i < n; i++ {
				tx.Insert(items[i%len(items)].Box)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		snap := ds.Current()
		if snap.DeltaEntries() != n || snap.TombstoneCount() != min(n, len(items)/2) {
			t.Fatalf("overlay holds %d entries and %d tombstones, want %d entries",
				snap.DeltaEntries(), snap.TombstoneCount(), n)
		}
		for _, view := range snap.Indexes() {
			check("view/", view)
		}
	}

	// A compaction after every kind was routed defers the contenders no kind
	// ranks cheapest: their build time reads 0.
	routed, err := engine.NewDataset(items, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := engine.Open(engine.WithDataset(routed))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range hotPathRequests(vol) {
		if _, err := rs.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	rs.Close()
	tx := routed.Begin()
	tx.Update(items[0].ID, items[0].Box)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	compacted, err := routed.Compact()
	if err != nil {
		t.Fatal(err)
	}
	deferred := 0
	for i, view := range compacted.Indexes() {
		if routed.Stats().BuildTimes[i] == 0 {
			deferred++
			check("deferred/", view)
		}
	}
	if deferred == 0 {
		t.Error("deferred/…: the compaction deferred no contender")
	}

	sess, err := engine.Open(engine.WithDataset(ds)) // over the 10,000-entry overlay
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, req := range hotPathRequests(vol) {
		measure(fmt.Sprintf("session/%s", req.Kind), func() error {
			_, err := sess.Do(ctx, req)
			return err
		})
	}
	var batch []engine.Request
	for len(batch) < 16 {
		batch = append(batch, hotPathRequests(vol)...)
	}
	for _, workers := range []int{1, 4} {
		measure(fmt.Sprintf("batch/workers=%d", workers), func() error {
			_, err := sess.DoBatch(ctx, batch, workers)
			return err
		})
	}

	dir := t.TempDir()
	dd, err := engine.CreateDataset(dir, items, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dd.Close(); err != nil {
		t.Fatal(err)
	}
	if dd, err = engine.OpenDataset(dir); err != nil {
		t.Fatal(err)
	}
	defer dd.Close()
	for _, view := range dd.Current().Indexes() {
		check("durable/", view)
	}
}

// TestViewKNNAllocsUnderChurn pins the kNN cell of a snapshot view with a live
// overlay that does work for the request: base residents, tombstoned ones
// among them, and delta candidates meet in the one pooled search, so the
// request allocates nothing.
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
	if got := testing.AllocsPerRun(50, run); got > 0 {
		t.Errorf("view kNN over a 1000-entry overlay: %.1f allocs/op, budget 0", got)
	}
}
