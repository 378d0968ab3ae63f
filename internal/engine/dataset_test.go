package engine_test

// The snapshot-isolation differential suite: a random interleaved op/query
// script is replayed against a brute-force versioned oracle, pinning hit
// sets, emission order and worker-count invariance per epoch for every
// contender × shards {1, 4} — and additionally against a from-scratch Build
// of each epoch's live item set, before and after Compact (the acceptance
// criterion of the mutable-dataset redesign).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/race"
	"neurospatial/internal/rtree"
)

// datasetCells is the contender × shard-count matrix of the suite.
func datasetCells() []struct {
	name   string
	opts   engine.DatasetOptions
	shards int
} {
	var cells []struct {
		name   string
		opts   engine.DatasetOptions
		shards int
	}
	add := func(name, contender string, shards int) {
		cells = append(cells, struct {
			name   string
			opts   engine.DatasetOptions
			shards int
		}{name, engine.DatasetOptions{
			Contenders:         []string{contender},
			Shards:             shards,
			DisableAutoCompact: true, // compaction points are chosen by the script
		}, shards})
	}
	add("flat", "flat", 0)
	add("rtree", "rtree", 0)
	add("grid", "grid", 0)
	add("sharded1", "sharded", 1)
	add("sharded4", "sharded", 4)
	return cells
}

// versionedOracle is the brute-force reference: the exact live item set,
// mutated in lockstep with the dataset.
type versionedOracle struct {
	boxes map[int32]geom.AABB
	ids   []int32 // live IDs, kept sorted for deterministic sampling
}

func newVersionedOracle(items []rtree.Item) *versionedOracle {
	o := &versionedOracle{boxes: make(map[int32]geom.AABB, len(items))}
	for _, it := range items {
		o.boxes[it.ID] = it.Box
		o.ids = append(o.ids, it.ID)
	}
	sort.Slice(o.ids, func(a, b int) bool { return o.ids[a] < o.ids[b] })
	return o
}

func (o *versionedOracle) insert(id int32, box geom.AABB) {
	o.boxes[id] = box
	o.ids = append(o.ids, id)
	sort.Slice(o.ids, func(a, b int) bool { return o.ids[a] < o.ids[b] })
}

func (o *versionedOracle) remove(id int32) {
	delete(o.boxes, id)
	for i, v := range o.ids {
		if v == id {
			o.ids = append(o.ids[:i], o.ids[i+1:]...)
			break
		}
	}
}

// live returns the live item set in ascending global-ID order.
func (o *versionedOracle) live() []rtree.Item {
	out := make([]rtree.Item, 0, len(o.ids))
	for _, id := range o.ids {
		out = append(out, rtree.Item{Box: o.boxes[id], ID: id})
	}
	return out
}

// randBox returns a small random box inside the test volume.
func randBox(rng *rand.Rand, vol geom.AABB) geom.AABB {
	size := vol.Size()
	p := geom.V(
		vol.Min.X+rng.Float64()*size.X,
		vol.Min.Y+rng.Float64()*size.Y,
		vol.Min.Z+rng.Float64()*size.Z,
	)
	return geom.BoxAround(p, 1+rng.Float64()*6)
}

// mutateStep applies one random batched mutation to both the dataset and the
// oracle, returning the published snapshot; it fails the test on any error.
func mutateStep(t *testing.T, rng *rand.Rand, ds *engine.Dataset, o *versionedOracle,
	ops int, vol geom.AABB) *engine.Snapshot {
	t.Helper()
	snap, err := mutateStepE(rng, ds, o, ops, vol)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// mutateStepE is the error-returning core of mutateStep, safe to call from
// non-test goroutines (t.Fatal must not leave the test goroutine).
func mutateStepE(rng *rand.Rand, ds *engine.Dataset, o *versionedOracle,
	ops int, vol geom.AABB) (*engine.Snapshot, error) {
	tx := ds.Begin()
	type pending struct {
		kind int // 0 insert, 1 delete, 2 update
		id   int32
		box  geom.AABB
	}
	var batch []pending
	used := make(map[int32]bool) // one op per existing ID per batch
	for i := 0; i < ops; i++ {
		k := rng.Intn(10)
		switch {
		case k < 4 || len(o.ids) == 0: // insert
			box := randBox(rng, vol)
			id := tx.Insert(box)
			batch = append(batch, pending{kind: 0, id: id, box: box})
		case k < 7: // delete
			id := o.ids[rng.Intn(len(o.ids))]
			if used[id] {
				continue
			}
			used[id] = true
			tx.Delete(id)
			batch = append(batch, pending{kind: 1, id: id})
		default: // update
			id := o.ids[rng.Intn(len(o.ids))]
			if used[id] {
				continue
			}
			used[id] = true
			box := randBox(rng, vol)
			tx.Update(id, box)
			batch = append(batch, pending{kind: 2, id: id, box: box})
		}
	}
	snap, err := tx.Commit()
	if err != nil {
		return nil, fmt.Errorf("commit: %v", err)
	}
	for _, p := range batch {
		switch p.kind {
		case 0:
			o.insert(p.id, p.box)
		case 1:
			o.remove(p.id)
		case 2:
			o.remove(p.id)
			o.insert(p.id, p.box)
		}
	}
	if snap.NumItems() != len(o.ids) {
		return nil, fmt.Errorf("epoch %d: snapshot holds %d items, oracle %d",
			snap.Epoch(), snap.NumItems(), len(o.ids))
	}
	return snap, nil
}

// freshBuildHits builds a throwaway contender of the cell's kind over the
// epoch's live item set (relabeled dense, ascending global order) and
// executes the requests — the "from-scratch Build of that epoch's item set"
// side of the acceptance criterion. Local hits are translated back to global
// IDs; ascending-local order is ascending-global order, so emission order is
// directly comparable.
func freshBuildHits(t *testing.T, opts engine.DatasetOptions, live []rtree.Item,
	reqs []engine.Request) [][]engine.Hit {
	t.Helper()
	local := make([]rtree.Item, len(live))
	for l, it := range live {
		local[l] = rtree.Item{Box: it.Box, ID: int32(l)}
	}
	var ix engine.SpatialIndex
	switch opts.Contenders[0] {
	case "flat":
		ix = engine.NewFlat(flat.Options{})
	case "rtree":
		ix = engine.NewRTree(0)
	case "grid":
		ix = engine.NewGrid(engine.GridOptions{})
	case "sharded":
		ix = engine.NewSharded(engine.ShardedOptions{Shards: opts.Shards})
	default:
		t.Fatalf("unknown contender %q", opts.Contenders[0])
	}
	if len(local) > 0 {
		if err := ix.Build(local); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]engine.Hit, len(reqs))
	for i, r := range reqs {
		if len(local) == 0 {
			continue
		}
		if _, err := ix.Do(context.Background(), r, func(h engine.Hit) {
			out[i] = append(out[i], engine.Hit{ID: live[h.ID].ID, Dist2: h.Dist2})
		}); err != nil {
			t.Fatalf("fresh build request %d: %v", i, err)
		}
	}
	return out
}

// verifyEpoch pins the dataset's current snapshot and checks every request
// against the oracle and the from-scratch build, at workers 1 and 4, with
// worker-count-invariant stats.
func verifyEpoch(t *testing.T, cellName string, ds *engine.Dataset, o *versionedOracle,
	vol geom.AABB, opts engine.DatasetOptions) {
	t.Helper()
	live := o.live()
	reqs := mixedRequests(live, vol)
	want := make([][]engine.Hit, len(reqs))
	for i, r := range reqs {
		want[i] = oracleHits(live, r)
	}
	fresh := freshBuildHits(t, opts, live, reqs)

	sess, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	epoch := sess.Snapshot().Epoch()

	var serial []engine.Result
	for _, w := range []int{1, 4} {
		got, err := sess.DoBatch(context.Background(), reqs, w)
		if err != nil {
			t.Fatalf("%s epoch %d workers=%d: %v", cellName, epoch, w, err)
		}
		for i := range got {
			if !hitsEqual(got[i].Hits, want[i]) {
				t.Fatalf("%s epoch %d workers=%d request %d (%s): hits %v, oracle %v",
					cellName, epoch, w, i, reqs[i], got[i].Hits, want[i])
			}
			if !hitsEqual(got[i].Hits, fresh[i]) {
				t.Fatalf("%s epoch %d workers=%d request %d (%s): snapshot %v, from-scratch build %v",
					cellName, epoch, w, i, reqs[i], got[i].Hits, fresh[i])
			}
		}
		if serial == nil {
			serial = got
			continue
		}
		for i := range got {
			a, b := serial[i].Stats, got[i].Stats
			if a.IndexReads != b.IndexReads || a.PagesRead != b.PagesRead ||
				a.EntriesTested != b.EntriesTested || a.Results != b.Results ||
				a.DeltaEntries != b.DeltaEntries || a.Tombstones != b.Tombstones ||
				a.ShardsTouched != b.ShardsTouched {
				t.Fatalf("%s epoch %d request %d: stats diverged across worker counts:\nserial %+v\nworkers=4 %+v",
					cellName, epoch, i, a, b)
			}
		}
	}
}

// TestDatasetDifferential replays a random interleaved op/query script
// against the versioned oracle for every contender × shards {1,4}: after
// every commit the pinned snapshot must return hit-for-hit (same canonical
// order) what a from-scratch Build of the epoch's live set returns, at
// workers {1,4}, and again right after an explicit Compact.
func TestDatasetDifferential(t *testing.T) {
	items := testItems(t, 8, 7001)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))

	for _, cell := range datasetCells() {
		rng := rand.New(rand.NewSource(7001))
		ds, err := engine.NewDataset(items, cell.opts)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		o := newVersionedOracle(items)

		verifyEpoch(t, cell.name, ds, o, vol, cell.opts) // epoch 0
		for step := 0; step < 5; step++ {
			mutateStep(t, rng, ds, o, 12, vol)
			verifyEpoch(t, cell.name, ds, o, vol, cell.opts)
			if step == 2 {
				// Mid-script compaction: same live set, fresh base.
				snap, err := ds.Compact()
				if err != nil {
					t.Fatalf("%s: compact: %v", cell.name, err)
				}
				if snap.DeltaEntries() != 0 || snap.TombstoneCount() != 0 {
					t.Fatalf("%s: compaction left overlay %d/%d", cell.name,
						snap.DeltaEntries(), snap.TombstoneCount())
				}
				verifyEpoch(t, cell.name, ds, o, vol, cell.opts)
			}
		}
		if _, err := ds.Compact(); err != nil {
			t.Fatalf("%s: final compact: %v", cell.name, err)
		}
		verifyEpoch(t, cell.name, ds, o, vol, cell.opts)

		st := ds.Stats()
		if st.Commits != 5 || st.Compactions != 2 {
			t.Fatalf("%s: stats %+v, want 5 commits / 2 compactions", cell.name, st)
		}
		overlayScript(t, cell.name, ds, o, rng, vol, cell.opts)
	}
}

// overlayScript drives the chunked overlay through the cases a 12-op random
// step rarely reaches, re-running the full differential (oracle and
// from-scratch build, all four kinds) after each: an overlay of several
// chunks, one ID touched repeatedly inside one Tx, deletes and updates of
// delta entries, updates of base items (whose small IDs land mid-sequence), a
// rejected batch, and updates that scatter ID-adjacent entries across the
// volume so a chunk's ID order says nothing about where its boxes are.
func overlayScript(t *testing.T, name string, ds *engine.Dataset, o *versionedOracle,
	rng *rand.Rand, vol geom.AABB, opts engine.DatasetOptions) {
	t.Helper()
	nBase := o.ids[len(o.ids)-1] + 1 // every later insert gets an ID at or above this
	mutateStep(t, rng, ds, o, 300, vol)
	verifyEpoch(t, name, ds, o, vol, opts)

	var deltaIDs, baseIDs []int32
	for _, id := range o.ids {
		if id >= nBase {
			deltaIDs = append(deltaIDs, id)
		} else {
			baseIDs = append(baseIDs, id)
		}
	}
	if len(deltaIDs) < 70 || len(baseIDs) < 10 {
		t.Fatalf("%s: script setup degenerate: %d delta / %d base items", name, len(deltaIDs), len(baseIDs))
	}
	dDel, dUpd := deltaIDs[len(deltaIDs)/2], deltaIDs[len(deltaIDs)/3]
	bUpd, bGone := baseIDs[1], baseIDs[len(baseIDs)/2]

	tx := ds.Begin()
	gone := tx.Insert(randBox(rng, vol)) // insert → update → delete: leaves no trace
	tx.Update(gone, randBox(rng, vol))
	tx.Delete(gone)
	kept, keptBox := tx.Insert(randBox(rng, vol)), randBox(rng, vol)
	tx.Update(kept, keptBox)
	tx.Delete(dDel)
	dUpdBox := randBox(rng, vol)
	tx.Update(dUpd, dUpdBox)
	tx.Update(bUpd, randBox(rng, vol)) // twice in one Tx: the last box wins
	bUpdBox := randBox(rng, vol)
	tx.Update(bUpd, bUpdBox)
	tx.Update(bGone, randBox(rng, vol))
	tx.Delete(bGone)
	snap, err := tx.Commit()
	if err != nil {
		t.Fatalf("%s: scripted commit: %v", name, err)
	}
	o.insert(kept, keptBox)
	o.remove(dDel)
	o.remove(bGone)
	for id, box := range map[int32]geom.AABB{dUpd: dUpdBox, bUpd: bUpdBox} {
		o.remove(id)
		o.insert(id, box)
	}
	if snap.NumItems() != len(o.ids) {
		t.Fatalf("%s: scripted commit left %d items, oracle %d", name, snap.NumItems(), len(o.ids))
	}
	if _, ok := snap.ItemBox(gone); ok {
		t.Fatalf("%s: item inserted and deleted in one Tx is live", name)
	}
	for id, want := range map[int32]geom.AABB{kept: keptBox, dUpd: dUpdBox, bUpd: bUpdBox} {
		if got, ok := snap.ItemBox(id); !ok || got != want {
			t.Fatalf("%s: ItemBox(%d) = %v, %v; want %v", name, id, got, ok, want)
		}
	}
	verifyEpoch(t, name, ds, o, vol, opts)

	// An invalid op after valid ones of every sort: all or nothing.
	before, stBefore := ds.Current(), ds.Stats()
	tx = ds.Begin()
	tx.Insert(randBox(rng, vol))
	tx.Delete(dUpd)
	tx.Update(kept, randBox(rng, vol))
	tx.Update(baseIDs[2], randBox(rng, vol))
	tx.Delete(bGone) // already gone
	if _, err := tx.Commit(); err == nil {
		t.Fatalf("%s: batch ending in a delete of a dead item committed", name)
	}
	if ds.Current() != before || ds.Stats() != stBefore {
		t.Fatalf("%s: rejected batch changed the dataset: %+v -> %+v", name, stBefore, ds.Stats())
	}
	verifyEpoch(t, name, ds, o, vol, opts)

	// Scatter: every third live item, base and delta alike, moves somewhere
	// unrelated to its neighbours in ID order.
	tx = ds.Begin()
	moved := map[int32]geom.AABB{}
	for i, id := range o.ids {
		if i%3 == 0 {
			moved[id] = randBox(rng, vol)
			tx.Update(id, moved[id])
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("%s: scatter commit: %v", name, err)
	}
	for id, box := range moved {
		o.boxes[id] = box
	}
	verifyEpoch(t, name, ds, o, vol, opts)

	mutateStep(t, rng, ds, o, 300, vol) // rewrite the scattered chunks once more
	verifyEpoch(t, name, ds, o, vol, opts)
}

// TestDatasetSnapshotIsolation pins a session at one epoch and proves later
// commits — including a compaction — do not change what it reads, while a
// freshly opened session sees the new epoch.
func TestDatasetSnapshotIsolation(t *testing.T) {
	items := testItems(t, 8, 7002)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat"}, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := newVersionedOracle(items)
	reqs := mixedRequests(items, vol)

	pinned, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	base, err := pinned.DoBatch(context.Background(), reqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Stats().Pinned; got != 1 {
		t.Fatalf("pinned count = %d, want 1", got)
	}

	rng := rand.New(rand.NewSource(7002))
	for step := 0; step < 3; step++ {
		mutateStep(t, rng, ds, o, 16, vol)
		// The pinned epoch must replay identically after every commit.
		again, err := pinned.DoBatch(context.Background(), reqs, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range again {
			if !hitsEqual(again[i].Hits, base[i].Hits) {
				t.Fatalf("step %d request %d: pinned session drifted: %v vs %v",
					step, i, again[i].Hits, base[i].Hits)
			}
		}
	}
	if _, err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	again, err := pinned.DoBatch(context.Background(), reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !hitsEqual(again[i].Hits, base[i].Hits) {
			t.Fatalf("post-compact request %d: pinned session drifted", i)
		}
	}

	// A fresh session sees the mutated state — and it differs from epoch 0
	// (the script deleted and inserted items).
	cur, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Snapshot().Epoch() == pinned.Snapshot().Epoch() {
		t.Fatal("fresh session pinned the old epoch")
	}
	live := o.live()
	got, err := cur.DoBatch(context.Background(), reqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if want := oracleHits(live, r); !hitsEqual(got[i].Hits, want) {
			t.Fatalf("fresh session request %d (%s): %v, oracle %v", i, r, got[i].Hits, want)
		}
	}
}

// TestDatasetSessionFixedViewAndClose covers WithIndexName routing, Close
// refcounting and double-Close idempotence.
func TestDatasetSessionFixedViewAndClose(t *testing.T) {
	items := testItems(t, 6, 7003)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat", "grid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.Open(engine.WithDataset(ds), engine.WithIndexName("grid"))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Index() == nil || sess.Index().Name() != "grid" {
		t.Fatal("fixed view not routed")
	}
	if sess.Planner() != nil {
		t.Fatal("fixed-view session reports a routing planner")
	}
	req := engine.RangeRequest(vol)
	res, err := sess.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != "grid" || !hitsEqual(res.Hits, oracleHits(items, req)) {
		t.Fatalf("fixed view result: %s, %d hits", res.Index, res.Stats.Results)
	}
	if got := ds.Stats().Pinned; got != 1 {
		t.Fatalf("pinned = %d", got)
	}
	sess.Close()
	sess.Close() // idempotent
	if got := ds.Stats().Pinned; got != 0 {
		t.Fatalf("pinned after close = %d", got)
	}

	if _, err := engine.Open(engine.WithDataset(ds), engine.WithIndexName("rtree")); err == nil {
		t.Fatal("unknown view name accepted")
	}
	if _, err := engine.Open(engine.WithIndexName("flat")); err == nil {
		t.Fatal("WithIndexName without WithDataset accepted")
	}
	if _, err := engine.Open(engine.WithDataset(ds), engine.WithPlanner(engine.NewPlanner())); err == nil {
		t.Fatal("two routing modes accepted")
	}
}

// TestDatasetInvalidOps: a batch containing any invalid operation is
// rejected whole, leaving the dataset untouched.
func TestDatasetInvalidOps(t *testing.T) {
	items := testItems(t, 6, 7004)
	ds, err := engine.NewDataset(items, engine.DatasetOptions{Contenders: []string{"flat"}})
	if err != nil {
		t.Fatal(err)
	}
	before := ds.Stats()

	cases := []struct {
		name string
		fill func(tx *engine.Tx)
	}{
		{"delete unknown", func(tx *engine.Tx) { tx.Insert(geom.BoxAround(geom.V(1, 1, 1), 1)); tx.Delete(99999) }},
		{"double delete", func(tx *engine.Tx) { tx.Delete(0); tx.Delete(0) }},
		{"update unknown", func(tx *engine.Tx) { tx.Update(99999, geom.BoxAround(geom.V(1, 1, 1), 1)) }},
		{"update deleted", func(tx *engine.Tx) { tx.Delete(1); tx.Update(1, geom.BoxAround(geom.V(1, 1, 1), 1)) }},
		{"NaN insert", func(tx *engine.Tx) {
			tx.Insert(geom.Box(geom.V(math.NaN(), 0, 0), geom.V(1, 1, 1)))
		}},
		{"empty-box update", func(tx *engine.Tx) {
			tx.Update(0, geom.EmptyAABB())
		}},
	}
	for _, c := range cases {
		tx := ds.Begin()
		c.fill(tx)
		if _, err := tx.Commit(); err == nil {
			t.Fatalf("%s: commit succeeded", c.name)
		}
	}
	after := ds.Stats()
	if after.Epoch != before.Epoch || after.Live != before.Live || after.Commits != 0 {
		t.Fatalf("failed commits mutated the dataset: %+v -> %+v", before, after)
	}

	// The boxes Commit rejects are rejected in the initial items too, by ID,
	// and CreateDataset writes nothing for them.
	for name, box := range map[string]geom.AABB{
		"NaN initial item":   geom.Box(geom.V(math.NaN(), 0, 0), geom.V(1, 1, 1)),
		"empty initial item": geom.EmptyAABB(),
	} {
		bad := append([]rtree.Item(nil), items...)
		bad[3].Box = box
		_, err := engine.NewDataset(bad, engine.DatasetOptions{Contenders: []string{"flat"}})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("item %d:", bad[3].ID)) {
			t.Fatalf("%s: NewDataset error %v, want one naming item %d", name, err, bad[3].ID)
		}
		dir := filepath.Join(t.TempDir(), "ds")
		if _, err := engine.CreateDataset(dir, bad, engine.DatasetOptions{Contenders: []string{"flat"}}); err == nil {
			t.Fatalf("%s: CreateDataset accepted it", name)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%s: CreateDataset left %s behind (%v)", name, dir, err)
		}
	}

	// A finished Tx cannot commit again.
	tx := ds.Begin()
	tx.Insert(geom.BoxAround(geom.V(5, 5, 5), 2))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("double Commit succeeded")
	}
	rb := ds.Begin()
	rb.Insert(geom.BoxAround(geom.V(5, 5, 5), 2))
	rb.Rollback()
	if _, err := rb.Commit(); err == nil {
		t.Fatal("Commit after Rollback succeeded")
	}
	if got := ds.Stats().Commits; got != 1 {
		t.Fatalf("commits = %d, want 1", got)
	}
}

// TestDatasetAutoCompact: the size/ratio trigger fires, folds the overlay
// down, and the post-compaction snapshot still matches the oracle.
func TestDatasetAutoCompact(t *testing.T) {
	items := testItems(t, 6, 7005)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders:   []string{"flat"},
		CompactMin:   8,
		CompactRatio: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := newVersionedOracle(items)
	rng := rand.New(rand.NewSource(7005))
	snap := mutateStep(t, rng, ds, o, 24, vol)
	st := ds.Stats()
	if st.AutoCompactions != 1 || st.Compactions != 1 {
		t.Fatalf("auto-compaction did not fire: %+v", st)
	}
	if snap.DeltaEntries() != 0 || snap.TombstoneCount() != 0 {
		t.Fatalf("overlay not folded: %d/%d", snap.DeltaEntries(), snap.TombstoneCount())
	}
	live := o.live()
	sess, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i, r := range mixedRequests(live, vol) {
		res, err := sess.Do(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleHits(live, r); !hitsEqual(res.Hits, want) {
			t.Fatalf("post-auto-compact request %d (%s): %v, oracle %v", i, r, res.Hits, want)
		}
	}
}

// TestDatasetOverlayStatsAndLayout: DeltaEntries/Tombstones surface in
// QueryStats, and the copy-on-write layout shares untouched base pages
// across commits.
func TestDatasetOverlayStatsAndLayout(t *testing.T) {
	items := testItems(t, 8, 7006)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat"}, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := ds.Begin()
	tx.Insert(geom.BoxAround(vol.Center(), 3))
	tx.Delete(0)
	tx.Update(1, geom.BoxAround(vol.Center(), 2))
	snap, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if snap.DeltaEntries() != 2 || snap.TombstoneCount() != 2 {
		t.Fatalf("overlay = %d delta / %d tombs, want 2/2", snap.DeltaEntries(), snap.TombstoneCount())
	}

	sess, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Do(context.Background(), engine.RangeRequest(vol))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeltaEntries != 2 {
		t.Fatalf("DeltaEntries = %d, want 2 (every overlay entry tested)", res.Stats.DeltaEntries)
	}
	if res.Stats.Tombstones != 2 {
		t.Fatalf("Tombstones = %d, want 2 (both dead base hits filtered)", res.Stats.Tombstones)
	}

	// Layout: items 0 and 1 share the first page, so one page is patched,
	// the rest of the base prefix stays shared, and the delta fits one
	// appended page.
	cow := snap.CowStats()
	if cow.Patched != 1 || cow.Appended != 1 {
		t.Fatalf("cow stats = %+v, want 1 patched / 1 appended", cow)
	}
	if cow.Shared == 0 {
		t.Fatalf("no base pages shared: %+v", cow)
	}
	base := ds.Stats()
	if base.Cow != cow {
		t.Fatalf("cumulative cow %+v != commit cow %+v", base.Cow, cow)
	}
	if snap.Store() == nil || snap.Store().NumPages() == 0 {
		t.Fatal("snapshot layout missing")
	}
}

// TestDatasetConcurrentWriterReaders is the -race smoke of the redesign: a
// committer goroutine applies batches while reader goroutines pin sessions
// and require each pinned epoch to replay identically.
func TestDatasetConcurrentWriterReaders(t *testing.T) {
	items := testItems(t, 8, 7007)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat", "grid"},
		CompactMin: 32, CompactRatio: 0.2, // let auto-compactions race readers too
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // committer
		defer wg.Done()
		defer close(stop) // release the readers even if a commit fails
		rng := rand.New(rand.NewSource(7007))
		o := newVersionedOracle(items)
		for i := 0; i < 40; i++ {
			if _, err := mutateStepE(rng, ds, o, 8, vol); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	reqs := []engine.Request{
		engine.RangeRequest(geom.BoxAround(vol.Center(), 40)),
		engine.KNNRequest(vol.Center(), 5),
		engine.PointRequest(vol.Center()),
		engine.WithinDistanceRequest(vol.Center(), 25),
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // reader
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sess, err := engine.Open(engine.WithDataset(ds))
				if err != nil {
					t.Error(err)
					return
				}
				first, err := sess.DoBatch(context.Background(), reqs, 2)
				if err != nil {
					t.Error(err)
					sess.Close()
					return
				}
				second, err := sess.DoBatch(context.Background(), reqs, 1)
				if err != nil {
					t.Error(err)
					sess.Close()
					return
				}
				for i := range first {
					if !hitsEqual(first[i].Hits, second[i].Hits) {
						t.Errorf("pinned epoch %d drifted between executions on request %d",
							sess.Snapshot().Epoch(), i)
					}
				}
				sess.Close()
			}
		}()
	}
	wg.Wait()
	if got := ds.Stats().Pinned; got != 0 {
		t.Fatalf("dangling pins after close: %d", got)
	}
}

// TestDatasetValidation covers constructor errors.
func TestDatasetValidation(t *testing.T) {
	items := testItems(t, 6, 7008)
	if _, err := engine.NewDataset(items, engine.DatasetOptions{Contenders: []string{"flat", "flat"}}); err == nil {
		t.Fatal("duplicate contenders accepted")
	}
	if _, err := engine.NewDataset(items, engine.DatasetOptions{Contenders: []string{"btree"}}); err == nil {
		t.Fatal("unknown contender accepted")
	}
	bad := []rtree.Item{{ID: 7}}
	if _, err := engine.NewDataset(bad, engine.DatasetOptions{}); err == nil {
		t.Fatal("non-dense initial IDs accepted")
	}
	ix := engine.NewGrid(engine.GridOptions{})
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat"}, Bases: []engine.SpatialIndex{ix},
	}); err == nil || !strings.Contains(err.Error(), "pre-built") {
		t.Fatalf("mismatched pre-built base accepted (%v)", err)
	}

	// Empty initial set: everything lives in the delta until a compaction.
	ds, err := engine.NewDataset(nil, engine.DatasetOptions{Contenders: []string{"flat"}})
	if err != nil {
		t.Fatal(err)
	}
	tx := ds.Begin()
	id := tx.Insert(geom.BoxAround(geom.V(5, 5, 5), 2))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sess, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Do(context.Background(), engine.PointRequest(geom.V(5, 5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].ID != id {
		t.Fatalf("empty-base dataset lost the insert: %v", res.Hits)
	}
	if _, err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	sess2, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	res2, err := sess2.Do(context.Background(), engine.PointRequest(geom.V(5, 5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Hits) != 1 || res2.Hits[0].ID != id {
		t.Fatalf("post-compact lookup lost the insert: %v", res2.Hits)
	}
}

// TestViewIsBaseAtEmptyOverlay pins what "the overlay is an argument of the
// one executor" means at its fixed point: over a fresh dataset — dense IDs, no
// delta, no tombstones — a view's Do is its base contender's Do, hit for hit
// and counter for counter, for every kind on every contender (the sharded one
// at 1 and 4 shards over each sub-index).
func TestViewIsBaseAtEmptyOverlay(t *testing.T) {
	items := testItems(t, 10, 7010)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	reqs := mixedRequests(items, vol)
	for _, cell := range sessionCells(t, items) {
		ds, err := engine.NewDataset(items, engine.DatasetOptions{
			Contenders: []string{cell.ix.Name()}, Bases: []engine.SpatialIndex{cell.ix}})
		if err != nil {
			t.Fatal(err)
		}
		view := ds.Current().Index(cell.ix.Name())
		var total int
		for _, req := range reqs {
			var want, got []engine.Hit
			wantSt, err := cell.ix.Do(context.Background(), req, func(h engine.Hit) { want = append(want, h) })
			if err != nil {
				t.Fatal(err)
			}
			gotSt, err := view.Do(context.Background(), req, func(h engine.Hit) { got = append(got, h) })
			if err != nil {
				t.Fatal(err)
			}
			if !hitsEqual(got, want) {
				t.Errorf("%s %s: view emitted %d hits, base %d (or in another order)", cell.name, req.Kind, len(got), len(want))
			}
			if gotSt != wantSt {
				t.Errorf("%s %s: view stats %+v, base stats %+v", cell.name, req.Kind, gotSt, wantSt)
			}
			total += len(want)
		}
		if total == 0 {
			t.Fatalf("%s: degenerate stream, no request had a hit", cell.name)
		}
	}
}

// TestDatasetProbeLeavesAttachedPoolUntouched extends the planner's
// cold-probe guarantee to snapshot views: a dataset session's calibration
// probes read the base index's pages, so they must detach a PageSource
// attached to the base — not warm it.
func TestDatasetProbeLeavesAttachedPoolUntouched(t *testing.T) {
	items := testItems(t, 8, 7009)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	base := engine.NewFlat(flat.DefaultOptions())
	if err := base.Build(items); err != nil {
		t.Fatal(err)
	}
	pool, err := pager.NewBufferPool(base.Store(), 16)
	if err != nil {
		t.Fatal(err)
	}
	base.SetSource(pool)
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat"}, Bases: []engine.SpatialIndex{base},
	})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []engine.Request
	for _, q := range []float64{10, 20, 30, 40} {
		reqs = append(reqs, engine.RangeRequest(geom.BoxAround(vol.Center(), q)))
	}
	d := ds.Current().Planner().PlanKind(engine.Range, reqs)
	if len(d.Probed) != 1 {
		t.Fatalf("first plan probed %v, want the one unprofiled view", d.Probed)
	}
	if st := pool.Stats(); st != (pager.Stats{}) {
		t.Fatalf("snapshot-view probe perturbed the base's attached pool: %+v", st)
	}
	if pool.Len() != 0 {
		t.Fatalf("snapshot-view probe populated the base's attached pool with %d pages", pool.Len())
	}
	if base.Source() != pool {
		t.Fatal("snapshot-view probe did not restore the base's attached source")
	}
}

// TestDatasetDuplicateInitialIDs: the constructor rejects duplicate IDs
// (range-only checking would silently fabricate a phantom zero item).
func TestDatasetDuplicateInitialIDs(t *testing.T) {
	dup := []rtree.Item{
		{Box: geom.BoxAround(geom.V(1, 1, 1), 1), ID: 0},
		{Box: geom.BoxAround(geom.V(2, 2, 2), 1), ID: 0},
	}
	if _, err := engine.NewDataset(dup, engine.DatasetOptions{}); err == nil {
		t.Fatal("duplicate initial IDs accepted")
	}
}

// TestDatasetCrossPlannerProbeRace: two sessions pinned to different epochs
// share the same base index instances, and each snapshot has its own
// planner — first-time probes from both planners must serialize on the
// *instance* (the probe rewires the index's read path), not merely within
// one planner. Run under -race.
func TestDatasetCrossPlannerProbeRace(t *testing.T) {
	items := testItems(t, 8, 7010)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"sharded"}, Shards: 4, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sessA, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sessA.Close()
	tx := ds.Begin()
	tx.Insert(geom.BoxAround(vol.Center(), 2))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sessB, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sessB.Close()
	if sessA.Snapshot().Epoch() == sessB.Snapshot().Epoch() {
		t.Fatal("sessions pinned the same epoch")
	}

	var wg sync.WaitGroup
	for _, sess := range []*engine.Session{sessA, sessB} {
		wg.Add(1)
		go func(s *engine.Session) {
			defer wg.Done()
			// First-time kinds on this epoch's planner: probes execute on the
			// shared sharded base.
			for _, req := range []engine.Request{
				engine.KNNRequest(vol.Center(), 4),
				engine.WithinDistanceRequest(vol.Center(), 20),
			} {
				if _, err := s.Do(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}(sess)
	}
	wg.Wait()
}

// growNeuron buffers one neuron-shaped batch: n boxes along a jittered path
// from a random soma in a random direction — consecutive inserts are spatial
// neighbours, as when a scientist adds a morphology — and returns the path.
func growNeuron(rng *rand.Rand, tx *engine.Tx, vol geom.AABB, n int) []geom.Vec {
	jitter := func() geom.Vec { return geom.V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1) }
	size := vol.Size()
	p := geom.V(vol.Min.X+rng.Float64()*size.X, vol.Min.Y+rng.Float64()*size.Y, vol.Min.Z+rng.Float64()*size.Z)
	dir := jitter()
	path := make([]geom.Vec, n)
	for i := range path {
		p = p.Add(dir).Add(jitter().Scale(0.5))
		path[i] = p
		tx.Insert(geom.BoxAround(p, 0.5))
	}
	return path
}

// TestDatasetPinnedEpochUnderChunkRewrites pins a session on an epoch with a
// multi-chunk overlay and replays its answers while a writer commits batches
// that delete and update that epoch's delta entries — rewriting, splitting and
// dropping chunks the pinned epoch still shares with its successors. Every
// replay must be bit for bit the first answer; under -race a commit that wrote
// into a shared chunk, bitset word or layout page is a reported data race.
func TestDatasetPinnedEpochUnderChunkRewrites(t *testing.T) {
	items := testItems(t, 8, 7011)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat", "rtree"}, Flat: flat.Options{PageSize: 16}, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := newVersionedOracle(items)
	rng := rand.New(rand.NewSource(7011))
	for i := 0; i < 4; i++ {
		mutateStep(t, rng, ds, o, 150, vol)
	}
	pinned, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	live := o.live()
	reqs := mixedRequests(live, vol)
	first, err := pinned.DoBatch(context.Background(), reqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if want := oracleHits(live, r); !hitsEqual(first[i].Hits, want) {
			t.Fatalf("pinned epoch request %d (%s) wrong before any later commit", i, r)
		}
	}

	done := make(chan error, 1)
	go func() { // the writer owns o and rng from here on
		for i := 0; i < 12; i++ {
			if _, err := mutateStepE(rng, ds, o, 150, vol); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false // one more replay, after the last commit
		default:
		}
		again, err := pinned.DoBatch(context.Background(), reqs, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range again {
			if !hitsEqual(again[i].Hits, first[i].Hits) || again[i].Stats.DeltaEntries != first[i].Stats.DeltaEntries {
				t.Fatalf("request %d (%s): the session pinned at epoch %d changed its answer while epoch %d was current",
					i, reqs[i], pinned.Snapshot().Epoch(), ds.Current().Epoch())
			}
		}
	}
	if ds.Current().Epoch()-pinned.Snapshot().Epoch() != 12 {
		t.Fatalf("pinned %d epochs back, want 12", ds.Current().Epoch()-pinned.Snapshot().Epoch())
	}
}

// TestDatasetOverlayWorkBounds states the overlay's two cost bounds as counts:
// a request tests the delta entries near its answer, not the overlay
// (QueryStats.DeltaEntries), and a commit allocates for its batch, not for the
// overlay it lands on.
func TestDatasetOverlayWorkBounds(t *testing.T) {
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	rng := rand.New(rand.NewSource(7012))
	items := make([]rtree.Item, 20000)
	for i := range items {
		items[i] = rtree.Item{ID: int32(i), Box: randBox(rng, vol)}
	}
	ds, err := engine.NewDataset(items, engine.DatasetOptions{Contenders: []string{"flat"}, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	// regrow is one fixed-size batch: 300 base items deleted (consecutive IDs,
	// as one neuron's are), 300 inserted along a walk.
	nextDead := int32(0)
	regrow := func() (path []geom.Vec, allocated uint64) {
		tx := ds.Begin()
		for i := 0; i < 300; i++ {
			tx.Delete(nextDead)
			nextDead++
		}
		path = growNeuron(rng, tx, vol, 300)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := tx.Commit()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return path, m1.TotalAlloc - m0.TotalAlloc
	}

	var path []geom.Vec
	var at1k, at8k uint64
	for commit := 1; commit <= 28; commit++ {
		p, allocated := regrow()
		switch commit {
		case 4: // lands on an overlay of 900 entries and as many tombstones
			at1k = allocated
		case 16:
			path = p
		case 28: // lands on 8100
			at8k = allocated
		}
		if commit != 16 {
			continue
		}
		snap := ds.Current()
		if snap.DeltaEntries() != 16*300 {
			t.Fatalf("overlay holds %d entries after 16 commits, want %d", snap.DeltaEntries(), 16*300)
		}
		sess, err := engine.Open(engine.WithDataset(ds))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		c := path[150]
		for _, req := range []engine.Request{
			engine.RangeRequest(geom.BoxAround(c, 4)),
			engine.PointRequest(c),
			engine.WithinDistanceRequest(c, 4),
			engine.KNNRequest(c, 8),
			engine.RangeRequest(vol.Expand(1000)),
		} {
			res, err := sess.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Hits) == 0 {
				t.Fatalf("%s: no hits on the walk it is centred on", req)
			}
			tested, all := res.Stats.DeltaEntries, int64(snap.DeltaEntries())
			switch {
			case req.Kind == engine.Range && req.Box == vol.Expand(1000):
				if tested != all {
					t.Errorf("whole-volume range tested %d delta entries, want all %d", tested, all)
				}
			case req.Kind == engine.KNN:
				if tested >= all {
					t.Errorf("%s tested %d delta entries of %d — no pruning by the k-th distance", req, tested, all)
				}
			case tested > all/8:
				t.Errorf("%s tested %d delta entries, more than an eighth of %d", req, tested, all)
			}
		}
	}
	if race.Enabled {
		return // instrumented allocations are not the commit's
	}
	lo, hi := min(at1k, at8k), max(at1k, at8k)
	if float64(hi) > 1.5*float64(lo) {
		t.Errorf("a 600-op commit allocated %d B on an overlay of 900 and %d B on one of 8100 — more than 1.5x apart", at1k, at8k)
	}
}

// TestDatasetPlanHistoryInheritedAcrossCommits: epochs that share a base share
// their routing cost inputs, so a commit hands the parent planner's history to
// the child — the child's first request of a kind misses the plan cache (it is
// epoch-keyed) but plans from history without probing — and a compaction,
// which builds new bases, starts history and probing over.
func TestDatasetPlanHistoryInheritedAcrossCommits(t *testing.T) {
	items := testItems(t, 8, 7013)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat", "rtree", "grid", "sharded"}, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := vol.Center()
	reqs := []engine.Request{
		engine.RangeRequest(geom.BoxAround(c, 20)), engine.KNNRequest(c, 8),
		engine.PointRequest(c), engine.WithinDistanceRequest(c, 15),
	}
	// serve issues every kind on the current epoch and returns its planner.
	serve := func(wantProbes bool) *engine.Planner {
		t.Helper()
		sess, err := engine.Open(engine.WithDataset(ds))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		epoch := sess.Snapshot().Epoch()
		for _, r := range reqs {
			// What a fresh PlanKind over the history the epoch starts this
			// kind with would choose (an empty sample plans without probing).
			_, profiled := sess.Planner().PlanKind(r.Kind, nil).CostPerQuery["flat"]
			want := sess.Planner().PlanKind(r.Kind, nil).Index.Name()
			res, err := sess.Do(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PlanCacheMisses != 1 {
				t.Fatalf("epoch %d %s: first request of its kind was not a plan-cache miss", epoch, r.Kind)
			}
			if profiled == wantProbes {
				t.Fatalf("epoch %d %s: history present = %v, want %v", epoch, r.Kind, profiled, !wantProbes)
			}
			if !wantProbes && res.Index != want {
				t.Fatalf("epoch %d %s: routed to %s, a fresh PlanKind over the inherited history picks %s",
					epoch, r.Kind, res.Index, want)
			}
		}
		if probed := sess.Planner().ProbesRun() > 0; probed != wantProbes {
			t.Fatalf("epoch %d: ProbesRun = %d, want probing = %v", epoch, sess.Planner().ProbesRun(), wantProbes)
		}
		return sess.Planner()
	}
	commit := func() {
		t.Helper()
		tx := ds.Begin()
		growNeuron(rand.New(rand.NewSource(int64(ds.Current().Epoch()))), tx, vol, 40)
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	first := serve(true) // epoch 0: nothing to inherit
	for i := 0; i < 5; i++ {
		commit()
		if p := serve(false); p == first || p.ProbesRun() != 0 {
			t.Fatalf("epoch %d: planner shared with an earlier epoch or probed (%d)", ds.Current().Epoch(), p.ProbesRun())
		}
	}
	if first.ProbesRun() != int64(len(reqs)*4) {
		t.Fatalf("epoch 0 ran %d probes, want one per kind and contender (%d)", first.ProbesRun(), len(reqs)*4)
	}
	if _, err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	serve(true) // new bases: new history
}
