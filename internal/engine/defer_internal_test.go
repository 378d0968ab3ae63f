package engine

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// allFour is every contender kind, in the order the benchmark configures them.
var allFour = []string{"flat", "rtree", "grid", "sharded"}

// kindRequests is one request of each kind around the scatteredItems cube's
// center, sized so that every kind has hits.
func kindRequests() []Request {
	c := geom.V(50, 50, 50)
	return []Request{
		RangeRequest(geom.BoxAround(c, 12)), KNNRequest(c, 9), PointRequest(c), WithinDistanceRequest(c, 10),
	}
}

// servedDataset is a dataset over 3,000 scattered items whose epoch-0 planner
// has routed one request of each of kinds (probing every contender for
// them), followed by one commit that updates every 7th item — an overlay for
// the next compaction to fold. live is the oracle's item set afterwards.
func servedDataset(t *testing.T, contenders []string, kinds ...Kind) (ds *Dataset, live map[int32]geom.AABB) {
	t.Helper()
	items := scatteredItems(3000, 100, 21)
	ds, err := NewDataset(items, DatasetOptions{Contenders: contenders, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	serve(t, ds, kinds...)
	live = make(map[int32]geom.AABB, len(items))
	for _, it := range items {
		live[it.ID] = it.Box
	}
	rng := rand.New(rand.NewSource(22))
	tx := ds.Begin()
	for id := int32(0); id < int32(len(items)); id += 7 {
		live[id] = geom.BoxAround(geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100), 1)
		tx.Update(id, live[id])
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ds, live
}

// serve routes one request of each of kinds through a session on ds.
func serve(t *testing.T, ds *Dataset, kinds ...Kind) {
	t.Helper()
	sess, err := Open(WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, req := range kindRequests() {
		if slices.Contains(kinds, req.Kind) {
			if _, err := sess.Do(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// oracleHits answers req by brute force over live, in canonical order.
func oracleHits(live map[int32]geom.AABB, req Request) []Hit {
	var hits []Hit
	for id, b := range live {
		switch req.Kind {
		case Range, Point:
			q := req.Box
			if req.Kind == Point {
				q = geom.AABB{Min: req.Center, Max: req.Center}
			}
			if b.Intersects(q) {
				hits = append(hits, Hit{ID: id})
			}
		case KNN, WithinDistance:
			if d2 := b.Dist2Point(req.Center); req.Kind == KNN || d2 <= req.Radius*req.Radius {
				hits = append(hits, Hit{ID: id, Dist2: d2})
			}
		}
	}
	slices.SortFunc(hits, func(a, b Hit) int { return int(a.ID - b.ID) })
	if req.Kind == KNN {
		slices.SortStableFunc(hits, func(a, b Hit) int {
			switch {
			case a.Dist2 < b.Dist2:
				return -1
			case a.Dist2 > b.Dist2:
				return 1
			}
			return 0
		})
		hits = hits[:min(req.K, len(hits))]
	}
	return hits
}

// checkOracle runs one request of every kind on every view of snap.
func checkOracle(t *testing.T, what string, snap *Snapshot, live map[int32]geom.AABB) {
	t.Helper()
	for _, view := range snap.Indexes() {
		for _, req := range kindRequests() {
			var got []Hit
			if _, err := view.Do(context.Background(), req, func(h Hit) { got = append(got, h) }); err != nil {
				t.Fatalf("%s: %s %s: %v", what, view.Name(), req.Kind, err)
			}
			if want := oracleHits(live, req); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s %s: %d hits, the oracle has %d", what, view.Name(), req.Kind, len(got), len(want))
			}
		}
	}
}

// deferredNames lists the contenders snap's base build deferred.
func deferredNames(snap *Snapshot) []string {
	var names []string
	for i, s := range snap.deferred {
		if s != nil {
			names = append(names, snap.opts.Contenders[i])
		}
	}
	return names
}

// TestCompactDefersNeverCheapest: a compaction defers exactly the contenders
// no kind's history ranks cheapest, once the outgoing history prices every
// contender for every kind, and reports 0 for their build times; with part of
// that history, none of it, or one contender, it builds them all.
func TestCompactDefersNeverCheapest(t *testing.T) {
	all := []Kind{Range, KNN, Point, WithinDistance}
	for _, tc := range []struct {
		name       string
		contenders []string
		kinds      []Kind
		defers     bool
	}{
		{"served all kinds", allFour, all, true},
		{"partial history", allFour, all[:2], false},
		{"no history", allFour, nil, false},
		{"one contender", []string{"rtree"}, all, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, live := servedDataset(t, tc.contenders, tc.kinds...)
			var want []string
			if tc.defers {
				cheapest := map[string]bool{}
				for _, k := range all {
					cheapest[ds.Current().Planner().PlanKind(k, nil).Index.Name()] = true
				}
				for _, name := range tc.contenders {
					if !cheapest[name] {
						want = append(want, name)
					}
				}
				if len(want) == 0 {
					t.Fatal("degenerate case: every contender is cheapest for some kind")
				}
			}
			snap, err := ds.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if got := deferredNames(snap); !reflect.DeepEqual(got, want) {
				t.Fatalf("deferred %v, want %v", got, want)
			}
			st := ds.Stats()
			for i, name := range tc.contenders {
				if unbuilt := st.BuildTimes[i] == 0; unbuilt != slices.Contains(want, name) {
					t.Fatalf("%s: build time %v, deferred %v", name, st.BuildTimes[i], !unbuilt)
				}
			}
			checkOracle(t, "compacted", snap, live)
		})
	}
}

// TestDeferredBaseMatchesEagerBuild: a deferred contender, once built, is
// the contender an eager build over the same items makes — pages, hits and
// stats.
func TestDeferredBaseMatchesEagerBuild(t *testing.T) {
	ds, live := servedDataset(t, allFour, Range, KNN, Point, WithinDistance)
	snap, err := ds.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if len(deferredNames(snap)) == 0 {
		t.Fatal("the compaction deferred nothing")
	}
	ids := make([]int32, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	local := make([]rtree.Item, len(ids))
	for l, id := range ids {
		local[l] = rtree.Item{Box: live[id], ID: int32(l)}
	}
	eager, err := (&Dataset{opts: ds.opts}).buildBases(local)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range snap.Bases() {
		if !reflect.DeepEqual(fingerprint(t, b), fingerprint(t, eager[i])) {
			t.Fatalf("%s: the compacted base differs from an eager build", allFour[i])
		}
	}
}

// TestDeferredBaseFirstTouchRace: eight goroutines make the first request on
// one deferred view at once. They wait for one build, see the one instance,
// and each gets the oracle's answer. Run under -race.
func TestDeferredBaseFirstTouchRace(t *testing.T) {
	ds, live := servedDataset(t, allFour, Range, KNN, Point, WithinDistance)
	snap, err := ds.Compact()
	if err != nil {
		t.Fatal(err)
	}
	names := deferredNames(snap)
	if len(names) == 0 {
		t.Fatal("the compaction deferred nothing")
	}
	view := snap.Index(names[0]).(*snapView)
	req := kindRequests()[0]
	want := oracleHits(live, req)
	start := make(chan struct{})
	seen := make([]contender, 8)
	var wg sync.WaitGroup
	for g := range seen {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			var got []Hit
			if _, err := view.Do(context.Background(), req, func(h Hit) { got = append(got, h) }); err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("goroutine %d: %d hits, the oracle has %d", g, len(got), len(want))
			}
			seen[g], _ = view.resolve()
		}(g)
	}
	close(start)
	wg.Wait()
	for g, ix := range seen {
		if ix == nil || ix != seen[0] {
			t.Fatalf("goroutine %d saw base %p, goroutine 0 saw %p", g, ix, seen[0])
		}
	}
}

// TestCheckpointAfterDeferringAutoCompaction: a checkpoint right after an
// auto-compaction that deferred contenders builds them and writes every
// contender's page segment, and the reopened dataset answers as the oracle.
func TestCheckpointAfterDeferringAutoCompaction(t *testing.T) {
	items := scatteredItems(3000, 100, 23)
	dir := t.TempDir()
	dd, err := CreateDataset(dir, items, DatasetOptions{Contenders: allFour})
	if err != nil {
		t.Fatal(err)
	}
	defer dd.Close()
	serve(t, dd.Dataset, Range, KNN, Point, WithinDistance)
	live := make(map[int32]geom.AABB, len(items))
	for _, it := range items {
		live[it.ID] = it.Box
	}
	rng := rand.New(rand.NewSource(24))
	for next := int32(0); dd.Stats().AutoCompactions == 0; next += 100 {
		tx := dd.Begin()
		for id := next; id < next+100; id++ {
			live[id] = geom.BoxAround(geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100), 1)
			tx.Update(id, live[id])
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if len(deferredNames(dd.Current())) == 0 {
		t.Fatal("the auto-compaction deferred nothing")
	}
	if err := dd.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := dd.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	pf := re.PageFiles()[0]
	for _, name := range allFour {
		if _, err := pf.Segment(name); err != nil {
			t.Fatalf("segment %s: %v", name, err)
		}
	}
	checkOracle(t, "reopened", re.Current(), live)
}

// TestDeferredBuildErrorIsTheRequestsError: when a deferred contender's build
// fails, every request that needs it returns that error — through scan, the
// kNN search and a paginated Do — and Bases leaves its entry nil. Fanout 2
// fails the R-tree's build.
func TestDeferredBuildErrorIsTheRequestsError(t *testing.T) {
	ds, _ := servedDataset(t, allFour, Range, KNN, Point, WithinDistance)
	snap, err := ds.Compact()
	if err != nil {
		t.Fatal(err)
	}
	opts := snap.opts
	opts.RTreeFanout = 2
	slot := &lazyBase{name: "rtree", opts: opts, n: len(snap.baseIDs), box: snap.baseBox}
	view := &snapView{name: "rtree", snap: snap, slot: slot}
	for _, req := range kindRequests() {
		for _, limit := range []int{0, 4} {
			req.Limit = limit
			if _, err := view.Do(context.Background(), req, func(Hit) { t.Error("hit emitted despite a failed build") }); err == nil ||
				!strings.HasPrefix(err.Error(), "engine: building deferred rtree base: ") {
				t.Fatalf("%s limit %d: error %v, want the build's", req.Kind, limit, err)
			}
		}
	}
	failed := &Snapshot{opts: snap.opts, bases: slices.Clone(snap.bases), deferred: []*lazyBase{nil, slot, nil, nil}}
	failed.bases[1] = nil
	if _, err := failed.builtBases(); err == nil {
		t.Fatal("builtBases hid the failed build")
	}
	if bases := failed.Bases(); bases[1] != nil || bases[0] == nil {
		t.Fatalf("Bases after a failed build: %v", bases)
	}
}
