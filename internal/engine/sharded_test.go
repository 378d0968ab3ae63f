package engine_test

// The sharded scatter-gather differential: for shard counts {1, 2, 4, 7} ×
// worker counts {1, 2, 4}, engine.Sharded must emit exactly the hits of the
// unsharded contender (both in Do's canonical ascending-ID order) with
// consistent stats — also through per-shard buffer pools, through an
// attached global pool, and under planner-routed execution.

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/prefetch"
	"neurospatial/internal/rtree"
	"neurospatial/internal/scout"
)

var shardCounts = []int{1, 2, 4, 7}
var shardWorkerCounts = []int{1, 2, 4}

// TestShardedMatchesUnshardedDifferential is the acceptance differential:
// hit-for-hit agreement with the unsharded FLAT index across shard counts ×
// worker counts.
func TestShardedMatchesUnshardedDifferential(t *testing.T) {
	items := testItems(t, 12, 7007)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 24)

	base := engine.NewFlat(flat.DefaultOptions())
	if err := base.Build(items); err != nil {
		t.Fatal(err)
	}
	want, wantStats := serialRange(t, base, queries)

	// Shards always host FLAT sub-indexes; the subtest is named for that kind.
	t.Run("flat", func(t *testing.T) {
		for _, k := range shardCounts {
			sh := engine.NewSharded(engine.ShardedOptions{Shards: k})
			if err := sh.Build(items); err != nil {
				t.Fatalf("shards=%d: %v", k, err)
			}
			if got := sh.NumShards(); got != k {
				t.Fatalf("shards=%d: built %d shards", k, got)
			}

			// Serial scatter-gather == unsharded serial loop.
			got, gotStats := serialRange(t, sh, queries)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: serial hits diverged from unsharded (%d vs %d)",
					k, len(got), len(want))
			}
			for qi := range gotStats {
				if gotStats[qi].Results != wantStats[qi].Results {
					t.Errorf("shards=%d query %d: Results %d, unsharded %d",
						k, qi, gotStats[qi].Results, wantStats[qi].Results)
				}
				if st := gotStats[qi].ShardsTouched; st < 1 || st > int64(k) {
					t.Errorf("shards=%d query %d: ShardsTouched %d outside [1,%d]",
						k, qi, st, k)
				}
			}

			// DoBatch at every worker count == Sharded serial, exact
			// per-query stats included.
			sess, err := engine.Open(engine.WithIndex(sh))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range shardWorkerCounts {
				batch, bsts, _ := batchRange(t, sess, queries, w)
				if !reflect.DeepEqual(batch, want) {
					t.Fatalf("shards=%d workers=%d: batch hits diverged", k, w)
				}
				if !reflect.DeepEqual(bsts, gotStats) {
					t.Fatalf("shards=%d workers=%d: batch stats diverged", k, w)
				}
			}
		}
	})
}

// TestShardedThroughGlobalPool attaches one buffer pool over the global page
// space (SetSource): hits must be unchanged and the pool must account reads
// in global page IDs.
func TestShardedThroughGlobalPool(t *testing.T) {
	items := testItems(t, 12, 7009)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 24)

	base := engine.NewFlat(flat.DefaultOptions())
	if err := base.Build(items); err != nil {
		t.Fatal(err)
	}
	want, _ := serialRange(t, base, queries)

	for _, k := range shardCounts {
		sh := engine.NewSharded(shardOpts(k))
		if err := sh.Build(items); err != nil {
			t.Fatal(err)
		}
		sess, err := engine.Open(engine.WithIndex(sh))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range shardWorkerCounts {
			pool, err := pager.NewBufferPool(sh.Store(), 16)
			if err != nil {
				t.Fatal(err)
			}
			sh.SetSource(pool)
			got, _, _ := batchRange(t, sess, queries, w)
			sh.SetSource(nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d workers=%d: globally pooled hits diverged", k, w)
			}
			if st := pool.Stats(); st.Hits+st.DemandReads == 0 {
				t.Errorf("shards=%d workers=%d: global pool saw no traffic", k, w)
			}
		}
	}
}

// TestShardedPlannerRouted pins planner-routed execution over a sharded
// contender: routed output equals the chosen index's serial run for every
// shard × worker combination.
func TestShardedPlannerRouted(t *testing.T) {
	items := testItems(t, 12, 7010)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 16)

	for _, k := range shardCounts {
		sh := engine.NewSharded(shardOpts(k))
		if err := sh.Build(items); err != nil {
			t.Fatal(err)
		}
		fl := engine.NewFlat(flat.DefaultOptions())
		if err := fl.Build(items); err != nil {
			t.Fatal(err)
		}
		p := engine.NewPlanner(fl, sh)
		sess, err := engine.Open(engine.WithPlanner(p))
		if err != nil {
			t.Fatal(err)
		}
		next := p.PlanKind(engine.Range, rangeRequests(queries))
		want, _ := serialRange(t, next.Index, queries)
		for _, w := range shardWorkerCounts {
			got, _, results := batchRange(t, sess, queries, w)
			if results[0].Index != next.Index.Name() {
				t.Fatalf("shards=%d workers=%d: batch routed to %s, PlanKind predicted %s",
					k, w, results[0].Index, next.Index.Name())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d workers=%d: planner-routed hits diverged", k, w)
			}
		}
	}
}

// TestShardedStorageGeometry checks the dense global page remap: page
// contents are global IDs, PageOf/PagesInRange address the global space, and
// the per-shard page ranges are disjoint and dense.
func TestShardedStorageGeometry(t *testing.T) {
	items := testItems(t, 12, 7011)
	sh := engine.NewSharded(shardOpts(4))
	if err := sh.Build(items); err != nil {
		t.Fatal(err)
	}
	store := sh.Store()
	if store == nil || store.NumPages() != sh.NumPages() {
		t.Fatal("global store missing or page count mismatch")
	}
	// Every item is on exactly the global page its PageOf reports.
	seen := make([]int, len(items))
	for p := 0; p < store.NumPages(); p++ {
		for _, id := range store.Page(pager.PageID(p)) {
			if id < 0 || int(id) >= len(items) {
				t.Fatalf("page %d holds non-global ID %d", p, id)
			}
			seen[id]++
			if got := sh.PageOf(id); got != pager.PageID(p) {
				t.Fatalf("item %d laid out on page %d but PageOf says %d", id, p, got)
			}
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("item %d appears on %d pages, want exactly 1", id, n)
		}
	}
	if sh.PageOf(-1) != pager.InvalidPage || sh.PageOf(int32(len(items))) != pager.InvalidPage {
		t.Error("out-of-range PageOf did not return InvalidPage")
	}
	// PagesInRange covers the pages of every query result.
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	for _, q := range testQueries(vol, 8) {
		pages := make(map[pager.PageID]bool)
		for _, p := range sh.PagesInRange(q) {
			pages[p] = true
		}
		ids, _ := doRange(t, sh, q)
		for _, id := range ids {
			if !pages[sh.PageOf(id)] {
				t.Fatalf("result %d's page %d not in PagesInRange", id, sh.PageOf(id))
			}
		}
	}

	// Build runs its sub-builds on the pool: the geometry above is the same
	// build whether they ran one at a time or side by side (under -race, a
	// sub-build writing outside its own shard is a reported race).
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		again := engine.NewSharded(shardOpts(4))
		err := again.Build(items)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if again.NumShards() != sh.NumShards() || again.NumPages() != sh.NumPages() {
			t.Fatalf("GOMAXPROCS %d: %d shards / %d pages, want %d / %d",
				procs, again.NumShards(), again.NumPages(), sh.NumShards(), sh.NumPages())
		}
		for i := 0; i < sh.NumShards(); i++ {
			if again.ShardBounds(i) != sh.ShardBounds(i) {
				t.Fatalf("GOMAXPROCS %d: shard %d bounds differ", procs, i)
			}
		}
		for p := 0; p < store.NumPages(); p++ {
			if !reflect.DeepEqual(again.Store().Page(pager.PageID(p)), store.Page(pager.PageID(p))) {
				t.Fatalf("GOMAXPROCS %d: global page %d differs", procs, p)
			}
		}
		for id := range items { // PageOf reads shardOf and local
			if again.PageOf(int32(id)) != sh.PageOf(int32(id)) {
				t.Fatalf("GOMAXPROCS %d: item %d on page %d, want %d", procs, id, again.PageOf(int32(id)), sh.PageOf(int32(id)))
			}
		}
		for _, q := range testQueries(vol, 8) {
			got, gotSt := doRange(t, again, q)
			want, wantSt := doRange(t, sh, q)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("GOMAXPROCS %d: Do(%v) differs", procs, q)
			}
		}
	}
}

// TestShardedBuildErrorIsTheFirstShards pins which error a failing build
// reports now that the sub-builds run concurrently: every shard's seed tree
// rejects the fanout, and the one reported is shard 0's, every time.
func TestShardedBuildErrorIsTheFirstShards(t *testing.T) {
	items := testItems(t, 4, 7013)
	for i := 0; i < 8; i++ {
		sh := engine.NewSharded(engine.ShardedOptions{Shards: 4, Flat: flat.Options{SeedFanout: 2}})
		err := sh.Build(items)
		if err == nil || !strings.HasPrefix(err.Error(), "engine: building shard 0: ") {
			t.Fatalf("Build error %v, want shard 0's", err)
		}
	}
}

// TestShardedWalkthroughWithPrefetchers runs the prefetch simulator over a
// sharded store with every location prefetcher plus SCOUT: the walkthrough
// must serve the same elements as the unsharded flat-served run, and
// prefetch accounting must stay within the identity bounds.
func TestShardedWalkthroughWithPrefetchers(t *testing.T) {
	items := testItems(t, 10, 7012)
	boxes := make([]geom.AABB, 12)
	for i := range boxes {
		boxes[i] = geom.BoxAround(geom.V(30+float64(i)*12, 100, 100), 15)
	}
	base := engine.NewFlat(flat.DefaultOptions())
	if err := base.Build(items); err != nil {
		t.Fatal(err)
	}
	baseSim := &prefetch.Simulator{
		Index:     base,
		Segment:   func(id int32) geom.Segment { return geom.Segment{} },
		Cost:      pager.DefaultCostModel(),
		ThinkTime: 100,
		PoolPages: base.NumPages(),
	}
	baseRun, err := baseSim.Run(prefetch.None{}, boxes)
	if err != nil {
		t.Fatal(err)
	}

	sh := engine.NewSharded(shardOpts(4))
	if err := sh.Build(items); err != nil {
		t.Fatal(err)
	}
	sim := &prefetch.Simulator{
		Index:     sh,
		Segment:   func(id int32) geom.Segment { return geom.Segment{} },
		Cost:      pager.DefaultCostModel(),
		ThinkTime: 100,
		PoolPages: sh.NumPages(),
	}
	for _, p := range []prefetch.Prefetcher{
		prefetch.None{}, prefetch.Hilbert{}, prefetch.Extrapolation{}, scout.New(scout.Options{}),
	} {
		run, err := sim.Run(p, boxes)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if run.Elements != baseRun.Elements {
			t.Errorf("%s: served %d elements over sharded store, flat served %d",
				p.Name(), run.Elements, baseRun.Elements)
		}
		if run.DemandReads == 0 {
			t.Errorf("%s: walkthrough issued no demand reads", p.Name())
		}
		if run.PrefetchHits > run.PrefetchReads {
			t.Errorf("%s: more prefetch hits (%d) than prefetch reads (%d)",
				p.Name(), run.PrefetchHits, run.PrefetchReads)
		}
	}
}

// TestShardedEmptyAndMoreShardsThanItems covers the degenerate builds.
func TestShardedEmptyAndMoreShardsThanItems(t *testing.T) {
	sh := engine.NewSharded(shardOpts(4))
	if err := sh.Build(nil); err != nil {
		t.Fatal(err)
	}
	if sh.NumItems() != 0 || sh.NumShards() != 0 || sh.NumPages() != 0 {
		t.Fatal("empty build left residue")
	}
	ids, st := doRange(t, sh, geom.BoxAround(geom.V(0, 0, 0), 10))
	if len(ids) != 0 {
		t.Fatal("hit on empty index")
	}
	if st.ShardsTouched != 0 {
		t.Fatal("empty index touched shards")
	}

	items := []rtree.Item{
		{Box: geom.BoxAround(geom.V(0, 0, 0), 1), ID: 0},
		{Box: geom.BoxAround(geom.V(50, 0, 0), 1), ID: 1},
	}
	sh = engine.NewSharded(shardOpts(8))
	if err := sh.Build(items); err != nil {
		t.Fatal(err)
	}
	if sh.NumShards() != 2 {
		t.Fatalf("2 items under 8 shards built %d shards, want 2", sh.NumShards())
	}
	got, _ := doRange(t, sh, geom.BoxAround(geom.V(25, 0, 0), 30))
	if !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("got %v, want [0 1]", got)
	}
}

// TestShardedPagedQueryMatchesDo pins the walkthrough entry point to the
// front door: over a walkthrough-shaped box sequence, PagedQuery through a
// pool emits the same ID sequence and leaves the same pool counters, step by
// step, as SetSource(pool) + Do(Range) on a twin pool — so the two cannot
// drift apart in page-read order. The pools are smaller than the store, so
// eviction makes the counters order-sensitive.
func TestShardedPagedQueryMatchesDo(t *testing.T) {
	items := testItems(t, 10, 7013)
	boxes := make([]geom.AABB, 14)
	for i := range boxes {
		boxes[i] = geom.BoxAround(geom.V(30+float64(i)*10, 100, 90+float64(i%3)*8), 18)
	}
	for _, k := range []int{1, 4} {
		sh := engine.NewSharded(shardOpts(k))
		if err := sh.Build(items); err != nil {
			t.Fatal(err)
		}
		pagedPool, err := pager.NewBufferPool(sh.Store(), 6)
		if err != nil {
			t.Fatal(err)
		}
		doPool, err := pager.NewBufferPool(sh.Store(), 6)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for step, q := range boxes {
			var paged []int32
			sh.PagedQuery(q, pagedPool, func(id int32) { paged = append(paged, id) })
			if sh.Source() != nil {
				t.Fatalf("shards=%d step %d: PagedQuery left a source attached", k, step)
			}
			sh.SetSource(doPool)
			viaDo, _ := doRange(t, sh, q)
			sh.SetSource(nil)
			if !reflect.DeepEqual(paged, viaDo) {
				t.Fatalf("shards=%d step %d: PagedQuery emitted %v, Do %v", k, step, paged, viaDo)
			}
			if a, b := pagedPool.Stats(), doPool.Stats(); a != b {
				t.Fatalf("shards=%d step %d: pool stats diverged: PagedQuery %+v, Do %+v", k, step, a, b)
			}
			total += len(paged)
		}
		if st := pagedPool.Stats(); total == 0 || st.DemandReads == 0 || st.Evictions == 0 {
			t.Errorf("shards=%d: degenerate walkthrough (%d results, pool %+v)", k, total, st)
		}
	}
}

// shardOpts returns the Sharded configuration with k shards and default FLAT
// options.
func shardOpts(k int) engine.ShardedOptions { return engine.ShardedOptions{Shards: k} }
