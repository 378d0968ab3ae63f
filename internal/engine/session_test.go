package engine_test

// The Request/Session differential harness: every (kind × index × shard
// count × worker count) cell is pinned against a serial brute-force oracle —
// identical hit sets, identical emission order, stats identical across
// worker counts — and cancellation tests prove a DoBatch aborted mid-flight
// stops before completing the batch and returns ctx.Err().

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// oracleHits answers any request by brute force over the raw item set, in
// the canonical order the engine contracts: ascending ID for the boolean
// kinds, ascending (Dist2, ID) for KNN.
func oracleHits(items []rtree.Item, req engine.Request) []engine.Hit {
	var hits []engine.Hit
	switch req.Kind {
	case engine.Range:
		for _, it := range items {
			if it.Box.Intersects(req.Box) {
				hits = append(hits, engine.Hit{ID: it.ID})
			}
		}
	case engine.Point:
		for _, it := range items {
			if it.Box.Contains(req.Center) {
				hits = append(hits, engine.Hit{ID: it.ID})
			}
		}
	case engine.WithinDistance:
		r2 := req.Radius * req.Radius
		for _, it := range items {
			if d2 := it.Box.Dist2Point(req.Center); d2 <= r2 {
				hits = append(hits, engine.Hit{ID: it.ID, Dist2: d2})
			}
		}
	case engine.KNN:
		for _, it := range items {
			hits = append(hits, engine.Hit{ID: it.ID, Dist2: it.Box.Dist2Point(req.Center)})
		}
		sort.Slice(hits, func(a, b int) bool {
			if hits[a].Dist2 != hits[b].Dist2 {
				return hits[a].Dist2 < hits[b].Dist2
			}
			return hits[a].ID < hits[b].ID
		})
		if len(hits) > req.K {
			hits = hits[:req.K]
		}
		return hits
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a].ID < hits[b].ID })
	return hits
}

// mixedRequests builds a deterministic request stream covering all four
// kinds, including hit-heavy placements (item centers), misses (outside the
// volume), boundary radii and k values beyond the item count.
func mixedRequests(items []rtree.Item, vol geom.AABB) []engine.Request {
	c := vol.Center()
	var reqs []engine.Request
	// Ranges of growing extent, plus a miss.
	for i := 0; i < 5; i++ {
		reqs = append(reqs, engine.RangeRequest(geom.BoxAround(c, 5+15*float64(i))))
	}
	reqs = append(reqs, engine.RangeRequest(geom.BoxAround(geom.V(1e5, 1e5, 1e5), 10)))
	// KNN at item centers, volume center, outside; k small, large, > n.
	for i, k := range []int{1, 3, 8, 17, len(items) + 5} {
		p := c
		if len(items) > 0 {
			p = items[(i*37)%len(items)].Box.Center()
		}
		reqs = append(reqs, engine.KNNRequest(p, k))
	}
	reqs = append(reqs, engine.KNNRequest(geom.V(-500, 900, 1e4), 4))
	// Point stabs at item centers (guaranteed hits) and a miss.
	for i := 0; i < 4 && i < len(items); i++ {
		reqs = append(reqs, engine.PointRequest(items[(i*53)%len(items)].Box.Center()))
	}
	reqs = append(reqs, engine.PointRequest(geom.V(-42, -42, -42)))
	// Within-distance spheres, including radius 0 at an item center.
	for i, r := range []float64{0, 4, 12, 30} {
		p := c
		if len(items) > 0 {
			p = items[(i*71)%len(items)].Box.Center()
		}
		reqs = append(reqs, engine.WithinDistanceRequest(p, r))
	}
	return reqs
}

// latticeItems is the tie workload: the points of an m×m×m unit lattice, each
// carrying dup copies of one box, so a request from the lattice's centre of
// symmetry meets distance classes of 8·dup, 24·dup, … items that straddle
// every median plane — where page, leaf, cell and shard boundaries fall.
// Integer centres, half-extent 0.25 and a half-integer query point keep every
// distance exact in floating point; IDs are dealt by a stride coprime to the
// count, so a class's smallest IDs sit anywhere in it.
func latticeItems(m, dup int) []rtree.Item {
	n := m * m * m * dup
	items := make([]rtree.Item, n)
	for i := range items {
		p, id := i/dup, int32(i*7919%n)
		items[id] = rtree.Item{ID: id,
			Box: geom.BoxAround(geom.V(float64(p%m), float64(p/m%m), float64(p/(m*m))), 0.25)}
	}
	return items
}

// tieRequests returns kNN requests from center whose k cuts the canonical
// order inside a tie class: k ∈ {1, r−1, r, r+1, n+5} for a rank r past the
// nearest class whose neighbours r−1 … r+2 all share one positive distance.
func tieRequests(t testing.TB, items []rtree.Item, center geom.Vec) []engine.Request {
	t.Helper()
	all := oracleHits(items, engine.KNNRequest(center, len(items)))
	for r := 20; r+1 < len(all); r++ {
		if d := all[r-2].Dist2; d > all[0].Dist2 && d == all[r+1].Dist2 {
			var reqs []engine.Request
			for _, k := range []int{1, r - 1, r, r + 1, len(items) + 5} {
				reqs = append(reqs, engine.KNNRequest(center, k))
			}
			return reqs
		}
	}
	t.Fatal("no tie class of four or more items past rank 20")
	return nil
}

// sessionCells returns the (name, index) differential cells: every
// contender, with the sharded one at shard counts 1 and 4.
func sessionCells(t testing.TB, items []rtree.Item) []struct {
	name string
	ix   engine.SpatialIndex
} {
	t.Helper()
	var cells []struct {
		name string
		ix   engine.SpatialIndex
	}
	add := func(name string, ix engine.SpatialIndex) {
		if err := ix.Build(items); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cells = append(cells, struct {
			name string
			ix   engine.SpatialIndex
		}{name, ix})
	}
	add("flat", engine.NewFlat(flat.DefaultOptions()))
	add("rtree", engine.NewRTree(0))
	add("grid", engine.NewGrid(engine.GridOptions{}))
	for _, shards := range []int{1, 4} {
		add(fmt.Sprintf("sharded%d", shards), engine.NewSharded(engine.ShardedOptions{Shards: shards}))
	}
	return cells
}

func hitsEqual(a, b []engine.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSessionDifferential pins every (kind × index × shards{1,4} ×
// workers{1,4}) cell against the serial brute-force oracle: identical hit
// sets, identical emission order, and per-request stats identical across
// worker counts — over the tissue's mixed stream, and over the lattice's kNN
// requests whose k-th distance is tied.
func TestSessionDifferential(t *testing.T) {
	tissue := testItems(t, 10, 9001)
	lattice := latticeItems(10, 2)
	for _, in := range []struct {
		name  string
		items []rtree.Item
		reqs  []engine.Request
	}{
		{"tissue", tissue, mixedRequests(tissue, geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200)))},
		// The k-th distance tied across page, leaf, cell and shard boundaries.
		{"lattice", lattice, tieRequests(t, lattice, geom.V(4.5, 4.5, 4.5))},
	} {
		items, reqs := in.items, in.reqs
		want := make([][]engine.Hit, len(reqs))
		for i, r := range reqs {
			want[i] = oracleHits(items, r)
		}

		for _, cell := range sessionCells(t, items) {
			name := in.name + "/" + cell.name
			sess := fixedSession(t, items, cell.ix)
			var serial []engine.Result
			for _, w := range []int{1, 4} {
				got, err := sess.DoBatch(context.Background(), reqs, w)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, w, err)
				}
				for i := range got {
					if !hitsEqual(got[i].Hits, want[i]) {
						t.Fatalf("%s workers=%d request %d (%s): hits %v, oracle %v",
							name, w, i, reqs[i], got[i].Hits, want[i])
					}
					if got[i].Stats.Results != int64(len(got[i].Hits)) {
						t.Fatalf("%s workers=%d request %d: Results=%d, %d hits emitted",
							name, w, i, got[i].Stats.Results, len(got[i].Hits))
					}
				}
				if serial == nil {
					serial = got
					continue
				}
				// Stat consistency: the parallel run's record is identical to
				// the serial one's, per request.
				for i := range got {
					a, b := serial[i].Stats, got[i].Stats
					if a.IndexReads != b.IndexReads || a.PagesRead != b.PagesRead ||
						a.EntriesTested != b.EntriesTested || a.Results != b.Results ||
						a.Reseeds != b.Reseeds || a.ShardsTouched != b.ShardsTouched {
						t.Fatalf("%s request %d: stats diverged across worker counts:\nserial %+v\nworkers=4 %+v",
							name, i, a, b)
					}
				}
			}
		}
	}
}

// TestSessionDoMatchesDoBatch: a single Do emits exactly the corresponding
// batch entry.
func TestSessionDoMatchesDoBatch(t *testing.T) {
	items := testItems(t, 8, 9002)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	reqs := mixedRequests(items, vol)

	ix := engine.NewSharded(engine.ShardedOptions{Shards: 4})
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	sess := fixedSession(t, items, ix)
	batch, err := sess.DoBatch(context.Background(), reqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		single, err := sess.Do(context.Background(), r)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !hitsEqual(single.Hits, batch[i].Hits) {
			t.Fatalf("request %d (%s): Do hits %v, DoBatch hits %v", i, r, single.Hits, batch[i].Hits)
		}
		if batch[i].Stats.Results != single.Stats.Results || batch[i].Stats.PagesRead != single.Stats.PagesRead {
			t.Fatalf("request %d: Do stats %+v, DoBatch %+v", i, single.Stats, batch[i].Stats)
		}
	}
}

// TestSessionPlannerRoutedMatchesOracle: a planner-routed session serves the
// mixed batch with oracle-identical output regardless of which contender
// each kind lands on.
func TestSessionPlannerRoutedMatchesOracle(t *testing.T) {
	items := testItems(t, 8, 9003)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	reqs := mixedRequests(items, vol)
	indexes := buildIndexes(t, items)

	sess := openSession(t, engine.WithDataset(baseDataset(t, items, indexes...)))
	got, err := sess.DoBatch(context.Background(), reqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	kindIndex := make(map[engine.Kind]string)
	for i := range got {
		if want := oracleHits(items, reqs[i]); !hitsEqual(got[i].Hits, want) {
			t.Fatalf("request %d (%s) via %s: hits %v, oracle %v", i, reqs[i], got[i].Index, got[i].Hits, want)
		}
		if prev, ok := kindIndex[reqs[i].Kind]; ok && prev != got[i].Index {
			t.Fatalf("kind %s routed to both %s and %s within one batch", reqs[i].Kind, prev, got[i].Index)
		}
		kindIndex[reqs[i].Kind] = got[i].Index
	}
}

// TestDoBatchCancellation: a DoBatch canceled mid-flight stops before
// completing the batch — at page-read granularity, in-flight queries
// included — emits nothing, and returns ctx.Err().
func TestDoBatchCancellation(t *testing.T) {
	items := testItems(t, 10, 9004)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	var reqs []engine.Request
	for i := 0; i < 24; i++ {
		reqs = append(reqs, engine.RangeRequest(geom.BoxAround(vol.Center(), 20+float64(i))))
	}

	for _, workers := range []int{1, 4} {
		ix := engine.NewFlat(flat.DefaultOptions())
		if err := ix.Build(items); err != nil {
			t.Fatal(err)
		}
		sess := fixedSession(t, items, ix)

		// Uncanceled baseline: total page reads of the full batch.
		base := &cancelSource{src: ix.Store(), after: -1, cancel: func() {}}
		ix.SetSource(base)
		if _, err := sess.DoBatch(context.Background(), reqs, workers); err != nil {
			t.Fatal(err)
		}
		total := base.count()
		if total < 20 {
			t.Fatalf("workers=%d: batch too small to test cancellation (%d reads)", workers, total)
		}

		// Canceled run: the 5th page read cancels the context; every later
		// read is preceded by the ctx check, so the batch must abort well
		// short of the baseline and emit nothing.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cs := &cancelSource{src: ix.Store(), after: 5, cancel: cancel}
		ix.SetSource(cs)
		emitted := 0
		results, err := sess.DoBatch(ctx, reqs, workers)
		if results != nil {
			for _, r := range results {
				emitted += len(r.Hits)
			}
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: canceled DoBatch returned %v, want context.Canceled", workers, err)
		}
		if results != nil {
			t.Fatalf("workers=%d: canceled DoBatch returned %d results (%d hits), want none",
				workers, len(results), emitted)
		}
		if got := cs.count(); got >= total {
			t.Fatalf("workers=%d: canceled run read %d pages, no fewer than the full batch's %d",
				workers, got, total)
		}
	}
}

// TestDoCancellationSingle: a single Do observes a pre-canceled and a
// mid-query-canceled context at page-read granularity.
func TestDoCancellationSingle(t *testing.T) {
	items := testItems(t, 10, 9005)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))

	ix := engine.NewGrid(engine.GridOptions{})
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	sess := fixedSession(t, items, ix)

	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := sess.Do(canceled, engine.RangeRequest(vol)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Do returned %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelSource{src: ix.Store(), after: 2, cancel: cancel}
	ix.SetSource(cs)
	res, err := sess.Do(ctx, engine.RangeRequest(vol))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-query canceled Do returned %v", err)
	}
	if len(res.Hits) != 0 {
		t.Fatalf("canceled Do emitted %d hits", len(res.Hits))
	}
	if got := cs.count(); got >= ix.NumPages() {
		t.Fatalf("canceled Do read %d of %d pages — no page-granular abort", got, ix.NumPages())
	}
}

// TestSessionInvalidRequests: malformed requests come back as typed
// *RequestError from Do, DoBatch and the index surface alike — never a
// panic, never a silent empty result.
func TestSessionInvalidRequests(t *testing.T) {
	items := testItems(t, 6, 9006)
	ix := engine.NewFlat(flat.DefaultOptions())
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	sess := fixedSession(t, items, ix)
	bad := []engine.Request{
		{}, // zero kind
		{Kind: engine.KNN, K: 0},
		{Kind: engine.WithinDistance, Radius: -1},
		engine.RangeRequest(geom.EmptyAABB()),
		{Kind: engine.Kind(99)},
	}
	for i, r := range bad {
		var reqErr *engine.RequestError
		if _, err := sess.Do(context.Background(), r); !errors.As(err, &reqErr) {
			t.Fatalf("bad request %d: Do returned %v, want *RequestError", i, err)
		}
		if _, err := ix.Do(context.Background(), r, nil); !errors.As(err, &reqErr) {
			t.Fatalf("bad request %d: index Do returned %v, want *RequestError", i, err)
		}
		batch := []engine.Request{engine.PointRequest(geom.V(0, 0, 0)), r}
		if _, err := sess.DoBatch(context.Background(), batch, 2); !errors.As(err, &reqErr) {
			t.Fatalf("bad request %d: DoBatch returned %v, want *RequestError", i, err)
		}
	}
	if _, err := engine.Open(); err == nil {
		t.Fatal("Open without WithDataset succeeded")
	}
}
