package engine

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// flattenDelta deep-copies a snapshot's overlay: delta entries in sequence
// order and the tombstone words.
func flattenDelta(sn *Snapshot) ([]rtree.Item, []uint64) {
	var items []rtree.Item
	for _, c := range sn.chunks {
		for i, id := range c.ids {
			items = append(items, rtree.Item{ID: id, Box: c.boxes[i]})
		}
	}
	return items, append([]uint64(nil), sn.tombs...)
}

// checkDelta asserts the structural invariants of ds's current snapshot sn's
// overlay against the model: chunks non-empty, at most chunkCap long,
// globally ascending, each MBR the union of its boxes, counts carried forward
// correctly, and LayoutPages the base pages plus one page per chunk.
func checkDelta(t *testing.T, ds *Dataset, sn *Snapshot, chunkCap int, wantDelta map[int32]geom.AABB, wantTombs map[int32]bool) {
	t.Helper()
	n, prev := 0, int32(-1)
	for ci, c := range sn.chunks {
		if len(c.ids) == 0 || len(c.ids) > chunkCap || len(c.ids) != len(c.boxes) {
			t.Fatalf("epoch %d chunk %d: %d ids / %d boxes, cap %d", sn.epoch, ci, len(c.ids), len(c.boxes), chunkCap)
		}
		mbr := geom.EmptyAABB()
		for i, id := range c.ids {
			if id <= prev {
				t.Fatalf("epoch %d chunk %d: ID %d after %d", sn.epoch, ci, id, prev)
			}
			prev = id
			if want, ok := wantDelta[id]; !ok || want != c.boxes[i] {
				t.Fatalf("epoch %d: delta entry %d = %v, model %v (present %v)", sn.epoch, id, c.boxes[i], want, ok)
			}
			mbr = mbr.Union(c.boxes[i])
		}
		if mbr != c.mbr {
			t.Fatalf("epoch %d chunk %d: MBR %v, boxes span %v", sn.epoch, ci, c.mbr, mbr)
		}
		n += len(c.ids)
	}
	if n != len(wantDelta) || sn.nDelta != n || sn.DeltaEntries() != n {
		t.Fatalf("epoch %d: %d delta entries in chunks, count %d, model %d", sn.epoch, n, sn.nDelta, len(wantDelta))
	}
	ps := sn.opts.PageSize
	if got, base := ds.Stats().LayoutPages, (len(sn.baseIDs)+ps-1)/ps; got != base+len(sn.chunks) {
		t.Fatalf("epoch %d: LayoutPages %d, want %d base + %d chunks", sn.epoch, got, base, len(sn.chunks))
	}
	dead := 0
	for l, id := range sn.baseIDs {
		if sn.dead(int32(l)) != wantTombs[id] {
			t.Fatalf("epoch %d: base item %d dead = %v, model %v", sn.epoch, id, sn.dead(int32(l)), wantTombs[id])
		}
		if wantTombs[id] {
			dead++
		}
	}
	if sn.nTombs != dead || sn.live != len(sn.baseIDs)-dead+n {
		t.Fatalf("epoch %d: %d tombstones counted, %d set; live %d", sn.epoch, sn.nTombs, dead, sn.live)
	}
}

// TestDeltaChunkSharingAndInvariants replays random batches — inserts,
// deletes and updates of base and delta items, IDs reused inside a batch,
// rejected batches — against a map model with 4-entry chunks, so every commit
// splits, shrinks and drops chunks. After each commit the new epoch satisfies
// the overlay invariants, and every earlier epoch's overlay is bit for bit
// what it was when published: a commit writes only chunks it created.
func TestDeltaChunkSharingAndInvariants(t *testing.T) {
	const chunkCap = 4
	rng := rand.New(rand.NewSource(31))
	box := func() geom.AABB {
		return geom.BoxAround(geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100), 1+rng.Float64())
	}
	items := make([]rtree.Item, 60)
	for i := range items {
		items[i] = rtree.Item{ID: int32(i), Box: box()}
	}
	ds, err := NewDataset(items, DatasetOptions{Flat: flat.Options{PageSize: chunkCap}, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}

	delta, tombs := map[int32]geom.AABB{}, map[int32]bool{}
	liveIDs := func() []int32 { // ascending, so the script is deterministic
		var ids []int32
		for id := int32(0); id < ds.nextID.Load(); id++ {
			if _, ok := delta[id]; ok || int(id) < len(items) && !tombs[id] {
				ids = append(ids, id)
			}
		}
		return ids
	}
	type frozen struct {
		sn    *Snapshot
		items []rtree.Item
		tombs []uint64
	}
	var history []frozen

	for step := 0; step < 60; step++ {
		tx := ds.Begin()
		nd, nt := maps.Clone(delta), maps.Clone(tombs)
		drop := func(id int32) {
			delete(nd, id)
			if int(id) < len(items) {
				nt[id] = true
			}
		}
		live := liveIDs()
		for op := 0; op < 1+rng.Intn(12); op++ {
			switch k := rng.Intn(10); {
			case k < 4 || len(live) == 0:
				b := box()
				id := tx.Insert(b)
				nd[id] = b
				live = append(live, id)
			case k < 7:
				j := rng.Intn(len(live))
				tx.Delete(live[j])
				drop(live[j])
				live = append(live[:j], live[j+1:]...)
			default: // an ID may be updated again, or deleted, later in the batch
				id, b := live[rng.Intn(len(live))], box()
				tx.Update(id, b)
				drop(id)
				nd[id] = b
			}
		}
		reject := step%7 == 3
		if reject {
			tx.Delete(1 << 20)
		}
		snap, err := tx.Commit()
		if reject {
			if err == nil {
				t.Fatalf("step %d: batch with a delete of an unknown item committed", step)
			}
		} else {
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			delta, tombs = nd, nt
			checkDelta(t, ds, snap, chunkCap, delta, tombs)
			fi, ft := flattenDelta(snap)
			history = append(history, frozen{snap, fi, ft})
		}
		for _, h := range history {
			if gi, gt := flattenDelta(h.sn); !reflect.DeepEqual(gi, h.items) || !reflect.DeepEqual(gt, h.tombs) {
				t.Fatalf("step %d (rejected %v): epoch %d's overlay changed after it was published", step, reject, h.sn.epoch)
			}
		}
	}
	if len(ds.Current().chunks) < 8 {
		t.Fatalf("script too tame: %d chunks at the end", len(ds.Current().chunks))
	}
}
