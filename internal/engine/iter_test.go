package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// streamItems builds a deterministic item set for the pagination properties:
// boxes scattered in a 100³ cube, with every 16th item clustered on the
// query focus (50,50,50) so the Point kind returns a large result set too.
func streamItems(n int, seed int64) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, n)
	for i := range items {
		var box geom.AABB
		if i%16 == 0 {
			c := geom.Vec{X: 49 + rng.Float64()*2, Y: 49 + rng.Float64()*2, Z: 49 + rng.Float64()*2}
			box = geom.BoxAround(c, 5)
		} else {
			c := geom.Vec{X: rng.Float64() * 100, Y: rng.Float64() * 100, Z: rng.Float64() * 100}
			box = geom.BoxAround(c, 0.2+rng.Float64()*0.8)
		}
		items[i] = rtree.Item{ID: int32(i), Box: box}
	}
	return items
}

// streamContenders builds every contender over the same items with small
// pages, so limits land mid-result.
func streamContenders(t *testing.T, items []rtree.Item) []engine.SpatialIndex {
	t.Helper()
	ixs := []engine.SpatialIndex{
		engine.NewFlat(flat.Options{PageSize: 8}),
		engine.NewRTree(8),
		engine.NewGrid(engine.GridOptions{PageSize: 8}),
		engine.NewSharded(engine.ShardedOptions{Shards: 4, Flat: flat.Options{PageSize: 8}}),
	}
	for _, ix := range ixs {
		if err := ix.Build(items); err != nil {
			t.Fatalf("building %s: %v", ix.Name(), err)
		}
	}
	return ixs
}

func streamRequests() []engine.Request {
	center := geom.Vec{X: 50, Y: 50, Z: 50}
	return []engine.Request{
		engine.RangeRequest(geom.Box(geom.Vec{X: 10, Y: 10, Z: 10}, geom.Vec{X: 90, Y: 90, Z: 90})),
		engine.KNNRequest(center, 37),
		engine.PointRequest(center),
		engine.WithinDistanceRequest(center, 35),
	}
}

// walkCursor pages through req with the given limit until the cursor runs
// out, returning the concatenation.
func walkCursor(t *testing.T, sess *engine.Session, req engine.Request, limit, total int) []engine.Hit {
	t.Helper()
	var walked []engine.Hit
	r := req
	r.Limit = limit
	for steps := 0; ; steps++ {
		if steps > total/limit+2 {
			t.Fatalf("cursor walk did not terminate after %d pages", steps)
		}
		res, err := sess.Do(context.Background(), r)
		if err != nil {
			t.Fatalf("cursor page %d: %v", steps, err)
		}
		walked = append(walked, res.Hits...)
		if res.Cursor == "" {
			return walked
		}
		r.Cursor = res.Cursor
	}
}

// TestPaginationReconcatenates is the seeded pagination property: for every
// contender × kind, (a) Limit/Offset pages and (b) cursor walks re-concatenate
// to exactly the unpaginated canonical hit sequence.
func TestPaginationReconcatenates(t *testing.T) {
	items := streamItems(4000, 42)
	for _, ix := range streamContenders(t, items) {
		sess := fixedSession(t, items, ix)
		for _, req := range streamRequests() {
			t.Run(fmt.Sprintf("%s/%s", ix.Name(), req.Kind), func(t *testing.T) {
				full, err := sess.Do(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if len(full.Hits) == 0 {
					t.Fatalf("degenerate workload: no hits")
				}
				if full.Cursor != "" {
					t.Fatalf("unpaginated result carries a cursor %q", full.Cursor)
				}

				// (a) Offset/Limit pages re-concatenate to the full sequence.
				pageSize := 19
				var paged []engine.Hit
				for off := 0; ; off += pageSize {
					r := req
					r.Offset, r.Limit = off, pageSize
					res, err := sess.Do(context.Background(), r)
					if err != nil {
						t.Fatalf("offset page at %d: %v", off, err)
					}
					if res.Stats.Results != int64(len(res.Hits)) {
						t.Fatalf("page stats Results = %d, want %d", res.Stats.Results, len(res.Hits))
					}
					paged = append(paged, res.Hits...)
					if len(res.Hits) < pageSize {
						break
					}
				}
				if !hitsEqual(paged, full.Hits) {
					t.Fatalf("offset pagination diverged: %d paged vs %d full hits", len(paged), len(full.Hits))
				}

				// (b) Cursor walk re-concatenates to the full sequence.
				walked := walkCursor(t, sess, req, 23, len(full.Hits))
				if !hitsEqual(walked, full.Hits) {
					t.Fatalf("cursor pagination diverged: %d walked vs %d full hits", len(walked), len(full.Hits))
				}
			})
		}
	}
}

// TestStreamDrainReadsLikeDo pins what a page keeps from the unpaginated
// execution: a Do whose Limit lies past the result — the whole result drained
// as one page — emits exactly the unpaginated Do's hits and reads exactly its
// pages, counted both by the request's PagesRead and by a tap on the real
// reads; through a churned snapshot view it also tests exactly as many delta
// entries. Every contender and every kind is covered.
func TestStreamDrainReadsLikeDo(t *testing.T) {
	items := streamItems(3000, 79)
	cs := sweepContenders(t, items)
	for _, c := range cs {
		view, live := churnedView(t, c.ix, items)
		for _, sf := range []struct {
			name string
			ix   engine.SpatialIndex
			n    int
		}{{"raw", c.ix, len(items)}, {"view", view, len(live)}} {
			for _, req := range streamRequests() {
				t.Run(fmt.Sprintf("%s/%s/%s", c.name, sf.name, req.Kind), func(t *testing.T) {
					run := func(req engine.Request) ([]engine.Hit, engine.QueryStats, int) {
						c.tap.arm(0, nil)
						var hits []engine.Hit
						st, err := sf.ix.Do(context.Background(), req, func(h engine.Hit) { hits = append(hits, h) })
						if err != nil {
							t.Fatal(err)
						}
						return hits, st, c.tap.count()
					}
					want, wantSt, wantReads := run(req)
					if len(want) == 0 || wantReads == 0 {
						t.Fatalf("degenerate cell: %d hits, %d reads", len(want), wantReads)
					}
					page := req
					page.Limit = sf.n + 1
					got, st, reads := run(page)
					if !hitsEqual(got, want) {
						t.Fatalf("drained stream emitted %d hits, Do %d", len(got), len(want))
					}
					if reads != wantReads || st.PagesRead != wantSt.PagesRead {
						t.Fatalf("drained stream read %d pages (PagesRead %d), Do %d (PagesRead %d)",
							reads, st.PagesRead, wantReads, wantSt.PagesRead)
					}
					if st.DeltaEntries != wantSt.DeltaEntries {
						t.Fatalf("drained stream tested %d delta entries, Do %d", st.DeltaEntries, wantSt.DeltaEntries)
					}
				})
			}
		}
	}
}

// churnedDataset builds a Dataset over the items and commits a batch of
// updates, deletes and inserts, returning it with the overlay still live
// (auto-compaction off) for the snapshot-side pagination properties.
func churnedDataset(t *testing.T, items []rtree.Item, seed int64) *engine.Dataset {
	t.Helper()
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders:         []string{"flat", "rtree", "grid", "sharded"},
		Flat:               flat.Options{PageSize: 8},
		RTreeFanout:        8,
		Grid:               engine.GridOptions{PageSize: 8},
		Shards:             4,
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tx := ds.Begin()
	gone := make(map[int32]bool)
	for i := 0; i < 200; i++ {
		id := int32(rng.Intn(len(items)))
		c := geom.Vec{X: rng.Float64() * 100, Y: rng.Float64() * 100, Z: rng.Float64() * 100}
		switch {
		case i%3 == 0 && !gone[id]:
			tx.Update(id, geom.BoxAround(c, 0.5))
		case i%3 == 1 && !gone[id]:
			tx.Delete(id)
			gone[id] = true
		default:
			tx.Insert(geom.BoxAround(c, 0.5))
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestSnapshotPagination runs the pagination property through a churned
// Dataset snapshot: every contender view's cursor walk re-concatenates to its
// full drain (which the dataset tests pin identical across views), and a
// cursor anywhere in the delta's ID sequence resumes with the hits after it.
func TestSnapshotPagination(t *testing.T) {
	items := streamItems(2000, 7)
	ds := churnedDataset(t, items, 8)
	if ds.Current().DeltaEntries() == 0 || ds.Current().TombstoneCount() == 0 {
		t.Fatalf("churn setup degenerate: delta %d, tombstones %d",
			ds.Current().DeltaEntries(), ds.Current().TombstoneCount())
	}
	for _, name := range []string{"flat", "rtree", "grid", "sharded"} {
		for _, req := range streamRequests() {
			t.Run(fmt.Sprintf("%s/%s", name, req.Kind), func(t *testing.T) {
				sess, err := engine.Open(engine.WithDataset(ds), engine.WithIndexName(name))
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				full, err := sess.Do(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if len(full.Hits) == 0 {
					t.Fatalf("degenerate workload: no hits")
				}

				walked := walkCursor(t, sess, req, 17, len(full.Hits))
				if !hitsEqual(walked, full.Hits) {
					t.Fatalf("snapshot cursor pagination diverged: %d walked vs %d full", len(walked), len(full.Hits))
				}

				// A resume position anywhere in the delta's ID sequence — the
				// inserts hold the IDs from len(items) up, eight to a chunk, so
				// consecutive positions fall on chunk boundaries and inside
				// chunks alike, on live entries and between them — continues
				// with exactly the hits that follow it.
				if req.Kind == engine.KNN {
					return
				}
				for id := int32(len(items)) - 2; id < int32(len(items))+20; id++ {
					var want []engine.Hit
					for _, h := range full.Hits {
						if h.ID > id {
							want = append(want, h)
						}
					}
					r := req
					r.Cursor = engine.NextCursor(req.Kind, engine.Hit{ID: id})
					res, err := sess.Do(context.Background(), r)
					if err != nil {
						t.Fatal(err)
					}
					if !hitsEqual(res.Hits, want) {
						t.Fatalf("resume after ID %d: %d hits, want the %d that follow it", id, len(res.Hits), len(want))
					}
				}
			})
		}
	}
}

// TestSnapshotKNNHighChurn is the over-fetch bugfix's differential: at high
// churn (half the base tombstoned), snapshot kNN must pin the exact top-k of
// a from-scratch build of the live items, and the adaptive over-fetch must
// not scale the base scan with the global tombstone count — the tombstones
// sit far from the query cluster, so the old k+TombstoneCount() fetch did
// ~TombstoneCount() extra work for nothing.
func TestSnapshotKNNHighChurn(t *testing.T) {
	const n = 2000
	items := streamItems(n, 11)
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders:         []string{"flat"},
		Flat:               flat.Options{PageSize: 8},
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	center := geom.Vec{X: 50, Y: 50, Z: 50}
	tx := ds.Begin()
	deleted := 0
	for id := int32(0); id < n && deleted < n/2; id++ {
		box, ok := ds.Current().ItemBox(id)
		if !ok {
			continue
		}
		if box.Center().Sub(center).Len2() > 30*30 {
			tx.Delete(id)
			deleted++
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := ds.Current()
	tombs := snap.TombstoneCount()
	if tombs < n/4 {
		t.Fatalf("churn setup too weak: %d tombstones", tombs)
	}

	// Oracle: a from-scratch build of the live item set, relabeled dense.
	// Dense local order preserves global order, so tie-breaking by ID agrees.
	var oracleItems []rtree.Item
	var oracleID []int32
	for id := int32(0); id < n; id++ {
		if box, ok := snap.ItemBox(id); ok {
			oracleItems = append(oracleItems, rtree.Item{ID: int32(len(oracleItems)), Box: box})
			oracleID = append(oracleID, id)
		}
	}
	oracle := engine.NewFlat(flat.Options{PageSize: 8})
	if err := oracle.Build(oracleItems); err != nil {
		t.Fatal(err)
	}

	sess, err := engine.Open(engine.WithDataset(ds), engine.WithIndexName("flat"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	for _, k := range []int{1, 5, 16} {
		req := engine.KNNRequest(center, k)
		res, err := sess.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		var want []engine.Hit
		if _, err := oracle.Do(context.Background(), req, func(h engine.Hit) {
			want = append(want, engine.Hit{ID: oracleID[h.ID], Dist2: h.Dist2})
		}); err != nil {
			t.Fatal(err)
		}
		if !hitsEqual(res.Hits, want) {
			t.Fatalf("k=%d: snapshot kNN diverged from oracle (%d vs %d hits)", k, len(res.Hits), len(want))
		}
		// The old over-fetch forced the base to produce k + tombs neighbors,
		// so its exact tests grew with the global tombstone count. The
		// adaptive probe's work stays near k: well under one test per
		// tombstone.
		if res.Stats.EntriesTested >= int64(tombs) {
			t.Fatalf("k=%d: EntriesTested = %d with %d tombstones — over-fetch still scales with churn",
				k, res.Stats.EntriesTested, tombs)
		}
	}

	// Ties between the base and the delta: copies of the r-th neighbour's box
	// tie its Dist2 exactly (r is the first neighbour outside the cluster that
	// contains the center, so the distance is positive and its own). One copy
	// arrives as an update of a far, live base item with a smaller ID (a delta
	// entry that must win the tie and push the old r-th out of a k=r answer),
	// one as an insert with a fresh, larger ID (a delta entry that must lose
	// it). The delta scan prunes by the k-th candidate's distance, so a tie
	// dropped there would show here.
	res, err := sess.Do(context.Background(), engine.KNNRequest(center, 400))
	if err != nil {
		t.Fatal(err)
	}
	rank, small := 0, int32(-1)
	for i, h := range res.Hits {
		if h.Dist2 == 0 || h.Dist2 == res.Hits[i-1].Dist2 {
			continue
		}
		for id := int32(0); id < h.ID && small < 0; id++ {
			if b, ok := snap.ItemBox(id); ok && b.Dist2Point(center) > 400 {
				small = id
			}
		}
		if small >= 0 {
			rank = i + 1
			break
		}
	}
	if rank == 0 {
		t.Fatal("no neighbour at a positive distance with a far live item below its ID")
	}
	nth := res.Hits[rank-1]
	tieBox, _ := snap.ItemBox(nth.ID)
	tx = ds.Begin()
	tx.Update(small, tieBox)
	large := tx.Insert(tieBox)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tied, err := engine.Open(engine.WithDataset(ds), engine.WithIndexName("flat"))
	if err != nil {
		t.Fatal(err)
	}
	defer tied.Close()
	for _, c := range []struct {
		k    int
		last int32
	}{{rank, small}, {rank + 1, nth.ID}, {rank + 2, large}} {
		res, err := tied.Do(context.Background(), engine.KNNRequest(center, c.k))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Hits[len(res.Hits)-1]
		if len(res.Hits) != c.k || got.ID != c.last || got.Dist2 != nth.Dist2 {
			t.Fatalf("k=%d: last hit %+v of %d, want ID %d at the tied distance %v", c.k, got, len(res.Hits), c.last, nth.Dist2)
		}
	}

	// The same on every contender, with whole tie classes split between base
	// and delta: over the lattice, a fifth of the items are re-committed with
	// their own box (a delta entry tying its twin copy in the base), a fifth
	// deleted (tombstones inside every class), and each deleted one re-inserted
	// under a fresh, larger ID.
	for _, shards := range []int{1, 4} {
		lattice := latticeItems(10, 2)
		ds, err := engine.NewDataset(lattice, engine.DatasetOptions{
			Contenders: []string{"flat", "rtree", "grid", "sharded"}, Shards: shards,
			Flat: flat.Options{PageSize: 8}, RTreeFanout: 8, Grid: engine.GridOptions{PageSize: 8},
			DisableAutoCompact: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var live []rtree.Item
		tx := ds.Begin()
		for _, it := range lattice {
			switch it.ID % 5 {
			case 0:
				tx.Update(it.ID, it.Box)
			case 1:
				tx.Delete(it.ID)
				it.ID = tx.Insert(it.Box)
			}
			live = append(live, it)
		}
		snap, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range tieRequests(t, live, geom.V(4.5, 4.5, 4.5)) {
			want := oracleHits(live, req)
			for _, view := range snap.Indexes() {
				var got []engine.Hit
				st, err := view.Do(context.Background(), req, func(h engine.Hit) { got = append(got, h) })
				if err != nil {
					t.Fatal(err)
				}
				if !hitsEqual(got, want) {
					t.Errorf("lattice shards=%d %s k=%d: hits %v, oracle %v", shards, view.Name(), req.K, got, want)
				}
				if st.DeltaEntries == 0 || st.Tombstones == 0 {
					t.Errorf("lattice shards=%d %s k=%d: the overlay did no work (%+v)", shards, view.Name(), req.K, st)
				}
			}
		}
	}
}

// TestDoBatchCancelUnderLoad is the cancellation audit's regression: cancel
// mid-DoBatch at high worker counts, repeatedly, under -race. Cancellation
// observed on a worker goroutine must come back as that slot's error, and
// DoBatch must return either a clean success or the context's error —
// nothing else.
func TestDoBatchCancelUnderLoad(t *testing.T) {
	items := streamItems(3000, 21)
	reqs := make([]engine.Request, 0, 64)
	base := streamRequests()
	for i := 0; i < 64; i++ {
		r := base[i%len(base)]
		if i%5 == 0 { // mix paginated requests into the canceled batch
			r.Limit = 7
		}
		reqs = append(reqs, r)
	}
	for _, ix := range streamContenders(t, items) {
		sess := fixedSession(t, items, ix)
		for round := 0; round < 6; round++ {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func(round int) {
				defer close(done)
				// Stagger the cancellation to land mid-batch at varying depths.
				time.Sleep(time.Duration(round) * 200 * time.Microsecond)
				cancel()
			}(round)
			res, err := sess.DoBatch(ctx, reqs, 8)
			<-done
			switch {
			case err == nil:
				if len(res) != len(reqs) {
					t.Fatalf("%s: clean batch returned %d results, want %d", ix.Name(), len(res), len(reqs))
				}
			case errors.Is(err, context.Canceled):
				if res != nil {
					t.Fatalf("%s: canceled batch returned partial results", ix.Name())
				}
			default:
				t.Fatalf("%s: DoBatch returned unexpected error %v", ix.Name(), err)
			}
		}
	}
}

// TestDoHonorsPagination pins the direct execution surface: a paginated
// request passed straight to SpatialIndex.Do (not through a Session) serves
// exactly the requested window, all-or-nothing, with Results counting the
// page — pagination fields are never silently ignored — and a cursor minted
// for another kind is refused with a field-pointing *RequestError.
func TestDoHonorsPagination(t *testing.T) {
	items := streamItems(600, 31)
	req := streamRequests()[0] // range over [10,90]³
	for _, ix := range streamContenders(t, items) {
		var full []engine.Hit
		fullSt, err := ix.Do(context.Background(), req, func(h engine.Hit) { full = append(full, h) })
		if err != nil {
			t.Fatalf("%s full: %v", ix.Name(), err)
		}
		if len(full) < 50 {
			t.Fatalf("%s: degenerate workload, %d hits", ix.Name(), len(full))
		}

		paged := req
		paged.Offset = 5
		paged.Limit = 10
		var window []engine.Hit
		st, err := ix.Do(context.Background(), paged, func(h engine.Hit) { window = append(window, h) })
		if err != nil {
			t.Fatalf("%s paged: %v", ix.Name(), err)
		}
		if !hitsEqual(window, full[5:15]) {
			t.Fatalf("%s: Do(Offset:5, Limit:10) emitted %v, want hits 5..14 of the full result", ix.Name(), window)
		}
		if st.Results != int64(len(window)) {
			t.Fatalf("%s: paged stats Results = %d, want %d", ix.Name(), st.Results, len(window))
		}
		if st.PagesRead > fullSt.PagesRead {
			t.Fatalf("%s: paged Do read %d pages, full read %d", ix.Name(), st.PagesRead, fullSt.PagesRead)
		}

		resumed := req
		resumed.Cursor = engine.NextCursor(req.Kind, window[len(window)-1])
		resumed.Limit = 10
		var next []engine.Hit
		if _, err := ix.Do(context.Background(), resumed, func(h engine.Hit) { next = append(next, h) }); err != nil {
			t.Fatalf("%s resume: %v", ix.Name(), err)
		}
		if !hitsEqual(next, full[15:25]) {
			t.Fatalf("%s: Do cursor resume emitted %v, want hits 15..24", ix.Name(), next)
		}

		wrong := engine.KNNRequest(geom.Vec{}, 3)
		wrong.Cursor = resumed.Cursor
		var reqErr *engine.RequestError
		if _, err := ix.Do(context.Background(), wrong, nil); !errors.As(err, &reqErr) || reqErr.Field != "Cursor" {
			t.Fatalf("%s: kind-mismatched cursor: error = %v, want *RequestError on Cursor", ix.Name(), err)
		}
	}
}

// TestStreamLifecycle walks one result stream page by page through Do: a
// Limit page is the stream's head, a NextCursor resume without a Limit drains
// the rest strictly after the cursor position with every item exactly once,
// and a kind-mismatched cursor is rejected at validation with a
// field-pointing *RequestError.
func TestStreamLifecycle(t *testing.T) {
	items := streamItems(500, 5)
	ix := engine.NewFlat(flat.Options{PageSize: 8})
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	req := engine.RangeRequest(geom.Box(geom.Vec{}, geom.Vec{X: 100, Y: 100, Z: 100}))

	head := req
	head.Limit = 10
	var first []engine.Hit
	if _, err := ix.Do(context.Background(), head, func(h engine.Hit) { first = append(first, h) }); err != nil {
		t.Fatal(err)
	}
	if len(first) != 10 {
		t.Fatalf("Limit:10 page emitted %d hits", len(first))
	}

	resume := req
	resume.Cursor = engine.NextCursor(engine.Range, first[len(first)-1])
	prev := first[len(first)-1].ID
	n := 0
	var orderErr error
	if _, err := ix.Do(context.Background(), resume, func(h engine.Hit) {
		if h.ID <= prev && orderErr == nil {
			orderErr = fmt.Errorf("resume emitted %d after %d — not strictly ascending past the cursor", h.ID, prev)
		}
		prev = h.ID
		n++
	}); err != nil {
		t.Fatal(err)
	}
	if orderErr != nil {
		t.Fatal(orderErr)
	}
	if n != len(items)-len(first) {
		t.Fatalf("resume emitted %d hits, want %d", n, len(items)-len(first))
	}

	wrong := engine.KNNRequest(geom.Vec{}, 3)
	wrong.Cursor = resume.Cursor
	var reqErr *engine.RequestError
	if _, err := ix.Do(context.Background(), wrong, nil); !errors.As(err, &reqErr) || reqErr.Field != "Cursor" {
		t.Fatalf("kind-mismatched cursor: error = %v, want *RequestError on Cursor", err)
	}
}

// TestPageStatsAreTheFullExecutions pins a page's record: a paginated Do runs
// its request once, whole, so its Stats equal the unpaginated Do's in every
// field but Results, which counts the page (Results == len(Hits)). Every
// contender and kind is covered, raw and through a churned snapshot view,
// with Limit, Offset and Cursor each alone and together.
func TestPageStatsAreTheFullExecutions(t *testing.T) {
	items := streamItems(2000, 83)
	for _, c := range sweepContenders(t, items) {
		view, _ := churnedView(t, c.ix, items)
		for _, sf := range []struct {
			name string
			ix   engine.SpatialIndex
		}{{"raw", c.ix}, {"view", view}} {
			for _, req := range streamRequests() {
				var full []engine.Hit
				want, err := sf.ix.Do(context.Background(), req, func(h engine.Hit) { full = append(full, h) })
				if err != nil {
					t.Fatal(err)
				}
				if len(full) < 8 {
					t.Fatalf("%s/%s/%s: degenerate workload, %d hits", c.name, sf.name, req.Kind, len(full))
				}
				cursor := engine.NextCursor(req.Kind, full[2])
				for _, p := range []struct {
					limit, offset int
					cursor        engine.Cursor
				}{
					{limit: 5}, {offset: 3}, {cursor: cursor}, {limit: 4, offset: 2, cursor: cursor}, {offset: len(full) + 1},
				} {
					page := req
					page.Limit, page.Offset, page.Cursor = p.limit, p.offset, p.cursor
					var hits []engine.Hit
					st, err := sf.ix.Do(context.Background(), page, func(h engine.Hit) { hits = append(hits, h) })
					if err != nil {
						t.Fatal(err)
					}
					if st.Results != int64(len(hits)) {
						t.Errorf("%s/%s/%s %+v: Results = %d, page holds %d hits", c.name, sf.name, req.Kind, p, st.Results, len(hits))
					}
					st.Results = want.Results
					if st != want {
						t.Errorf("%s/%s/%s %+v: page stats %+v, unpaginated Do's %+v", c.name, sf.name, req.Kind, p, st, want)
					}
				}
			}
		}
	}
}
