package engine

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// pageModel is the item-page layout that DatasetStats.LayoutPages and
// CowStats count, built for real: the base items' global IDs in base order
// on pages of capacity entries, the dead ones patched out, then one page per
// delta chunk. The engine derives its counts from what a commit changed and
// builds none of these pages; the model remaps them page by page, copy on
// write, so the two agree only if the derivation does.
type pageModel struct {
	capacity int
	pages    [][]int32
	nBase    int
}

// layOut lays baseIDs out fresh, as NewDataset and a compaction do.
func (m *pageModel) layOut(baseIDs []int32) {
	m.pages = nil
	for lo := 0; lo < len(baseIDs); lo += m.capacity {
		m.pages = append(m.pages, baseIDs[lo:min(lo+m.capacity, len(baseIDs))])
	}
	m.nBase = len(m.pages)
}

func (m *pageModel) delta() [][]int32 { return m.pages[m.nBase:] }

// commit remaps the layout over one batch: ids are the IDs the batch hands
// the delta merge (ascending), superseded the base items whose base version
// it ends, and live the item set after it. Base pages holding a superseded
// item are patched, the delta pages from the first one the merge changes on
// are dropped, the merge's pages from there on are appended, and every other
// page is shared.
func (m *pageModel) commit(ids []int32, superseded map[int32]bool, live map[int32]geom.AABB) CowStats {
	next, firstDirty := m.mergeDelta(ids, live)
	pages := slices.Clone(m.pages[:m.nBase+firstDirty])
	st := CowStats{Dropped: len(m.pages) - len(pages), Appended: len(next) - firstDirty}
	for p := 0; p < m.nBase; p++ {
		if kept := slices.DeleteFunc(slices.Clone(pages[p]), func(id int32) bool { return superseded[id] }); len(kept) < len(pages[p]) {
			pages[p] = kept
			st.Patched++
		}
	}
	st.Shared = len(pages) - st.Patched
	m.pages = append(pages, next[firstDirty:]...)
	return st
}

// mergeDelta is the chunk rule on ID arrays: each delta page takes the batch
// IDs below the next page's first (the last page takes the rest; with no
// page, one empty page takes them all), and a page that takes any is
// replaced by the live IDs of it and them, cut into pages of capacity. It
// returns the new delta pages and the first position at which they differ
// from the old ones.
func (m *pageModel) mergeDelta(ids []int32, live map[int32]geom.AABB) ([][]int32, int) {
	prev := m.delta()
	if len(ids) == 0 {
		return prev, len(prev)
	}
	if len(prev) == 0 {
		prev = [][]int32{nil}
	}
	var next [][]int32
	firstDirty := -1
	for i, page := range prev {
		n := len(ids)
		if i+1 < len(prev) {
			for n = 0; n < len(ids) && ids[n] < prev[i+1][0]; n++ {
			}
		}
		if n == 0 {
			next = append(next, page)
			continue
		}
		if firstDirty < 0 {
			firstDirty = len(next)
		}
		merged := append(slices.Clone(page), ids[:n]...)
		slices.Sort(merged)
		merged = slices.DeleteFunc(slices.Compact(merged), func(id int32) bool { _, ok := live[id]; return !ok })
		for lo := 0; lo < len(merged); lo += m.capacity {
			next = append(next, merged[lo:min(lo+m.capacity, len(merged))])
		}
		ids = ids[n:]
	}
	return next, firstDirty
}

// snapshotLive reads sn's live item set out of its base and overlay.
func snapshotLive(sn *Snapshot) map[int32]geom.AABB {
	live := map[int32]geom.AABB{}
	for l, id := range sn.baseIDs {
		if !sn.dead(int32(l)) {
			live[id] = sn.baseBox(int32(l))
		}
	}
	for _, c := range sn.chunks {
		for i, id := range c.ids {
			live[id] = c.boxes[i]
		}
	}
	return live
}

func sortedIDs(live map[int32]geom.AABB) []int32 {
	ids := make([]int32, 0, len(live))
	for x := range live {
		ids = append(ids, x)
	}
	slices.Sort(ids)
	return ids
}

// FuzzCommit drives Insert/Delete/Update batches — boxes with a NaN
// coordinate or Min > Max among them, IDs dead, base- or delta-resident,
// negative or never allocated — through Commit on 4-entry pages, with
// auto-compaction from 16 pending changes on. Every Commit either fails
// and leaves Current() and Stats() as they were, or publishes an epoch
// whose live set is a map oracle's and whose LayoutPages, per-commit
// CowStats and summed Cow are a pageModel's.
//
// The script is a byte stream. An op byte o starts an Insert (o%8 < 3), a
// Delete (< 5) or an Update (< 7), or ends the batch (7; 255 rolls it back
// first). An ID byte b below 240 names the (b mod n)-th of the n IDs live at
// that point of the batch, in ascending order; a larger one, or any with
// none live, spreads b mod 16 over [−4, nextID+4). A box is three centre
// bytes and a shape byte h: 0 puts a NaN in Min, 1 makes Min.X > Max.X, and
// any other h is the cube of half-side (h%8)/2 around the centre.
func FuzzCommit(f *testing.F) {
	f.Add([]byte{0, 10, 20, 30, 5, 7})          // one insert
	f.Add([]byte{3, 244, 7, 3, 244, 7})         // delete of base item 8, then of it again
	f.Add([]byte{5, 5, 1, 2, 3, 6, 3, 5, 7})    // update of base item 5, then its delete
	f.Add([]byte{0, 1, 1, 1, 0, 0, 9, 9, 9, 1}) // NaN and empty inserts
	f.Add([]byte{3, 240, 7, 3, 255, 7})         // delete of a negative ID, then of one never allocated
	// An insert deleted in its own batch, an insert rolled back, an insert.
	f.Add([]byte{0, 1, 1, 1, 4, 3, 40, 7, 0, 2, 2, 2, 4, 255, 0, 3, 3, 3, 4})
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{600, 2048} {
		script := make([]byte, n)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(checkCommits)
}

func checkCommits(t *testing.T, script []byte) {
	const pageSize, compactMin, compactRatio = 4, 16, 0.25
	// Every commit checks the whole live set, which grows with the script, so
	// a long script costs its square; the first 2 KiB reach every case.
	script = script[:min(len(script), 2048)]
	items := make([]rtree.Item, 40)
	live := map[int32]geom.AABB{} // the oracle's live set
	baseLive := map[int32]bool{}  // the live IDs served by the base
	for i := range items {
		b := geom.BoxAround(geom.V(float64(i*37%256), float64(i*91%256), float64(i*53%256)), float64(1+i%3))
		items[i] = rtree.Item{ID: int32(i), Box: b}
		live[int32(i)], baseLive[int32(i)] = b, true
	}
	ds, err := NewDataset(items, DatasetOptions{
		Flat: flat.Options{PageSize: pageSize}, PageSize: pageSize,
		CompactMin: compactMin, CompactRatio: compactRatio, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := pageModel{capacity: pageSize}
	model.layOut(ds.Current().baseIDs)
	nBaseIDs := len(items)
	var cow CowStats

	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	// id decodes an ID byte against order, the IDs live at that point of the
	// batch in ascending order.
	id := func(order []int32) int32 {
		b := int(next())
		if b < 240 && len(order) > 0 {
			return order[b%len(order)]
		}
		return int32((b%16)*(int(ds.nextID.Load())+8)/16) - 4
	}
	box := func() (geom.AABB, bool) {
		c := geom.V(float64(next()), float64(next()), float64(next()))
		switch h := next(); h {
		case 0:
			return geom.AABB{Min: geom.V(math.NaN(), c.Y, c.Z), Max: c}, false
		case 1:
			return geom.AABB{Min: c, Max: c.Sub(geom.V(1, 0, 0))}, false
		default:
			return geom.BoxAround(c, float64(h%8)/2), true
		}
	}

	for batch := 0; len(script) > 0; batch++ {
		prev, before := ds.Current(), ds.Stats()
		tx := ds.Begin()
		after, order := maps.Clone(live), sortedIDs(live)
		var touched []int32 // the batch's distinct IDs, in first-touch order
		seen := map[int32]bool{}
		valid := true
		for len(script) > 0 {
			o := next()
			if o == 255 {
				tx.Rollback()
				valid = false
			}
			if o%8 == 7 {
				break
			}
			var x int32
			switch {
			case o%8 < 3:
				b, ok := box()
				x = tx.Insert(b)
				valid = valid && ok
				after[x], order = b, append(order, x) // a fresh ID is the largest
			case o%8 < 5:
				x = id(order)
				tx.Delete(x)
				i, ok := slices.BinarySearch(order, x)
				if valid = valid && ok; ok {
					delete(after, x)
					order = slices.Delete(order, i, i+1)
				}
			default:
				x = id(order)
				b, ok := box()
				tx.Update(x, b)
				_, was := after[x]
				valid = valid && ok && was
				after[x] = b
			}
			if !seen[x] {
				seen[x] = true
				touched = append(touched, x)
			}
		}

		snap, err := tx.Commit()
		if !valid {
			if err == nil {
				t.Fatalf("batch %d: an invalid batch committed epoch %d", batch, snap.Epoch())
			}
			if ds.Current() != prev || ds.Stats() != before {
				t.Fatalf("batch %d: the failed commit (%v) changed the dataset", batch, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}

		// The batch hands the delta merge every ID it touched except a base
		// item it deletes; it supersedes every base item it touched.
		var ids []int32
		superseded := map[int32]bool{}
		for _, x := range touched {
			_, alive := after[x]
			if baseLive[x] {
				superseded[x] = true
				delete(baseLive, x)
				if !alive {
					continue
				}
			}
			ids = append(ids, x)
		}
		slices.Sort(ids)
		live = after
		st := model.commit(ids, superseded, live)
		cow.Add(st)
		pending := nBaseIDs - len(baseLive) + len(live) - len(baseLive)
		compact := pending >= compactMin && float64(pending) > compactRatio*float64(max(len(live), 1))
		if compact {
			base := sortedIDs(live)
			for _, x := range base {
				baseLive[x] = true
			}
			model.layOut(base)
			nBaseIDs, st = len(base), CowStats{}
		}

		got := ds.Stats()
		switch {
		case snap != ds.Current():
			t.Fatalf("batch %d: Commit returned epoch %d, Current is %d", batch, snap.Epoch(), ds.Current().Epoch())
		case got.Commits != before.Commits+1 || (got.Compactions > before.Compactions) != compact:
			t.Fatalf("batch %d: %d → %d commits, %d → %d compactions, model compacts %v",
				batch, before.Commits, got.Commits, before.Compactions, got.Compactions, compact)
		case !maps.Equal(snapshotLive(snap), live) || snap.NumItems() != len(live):
			t.Fatalf("batch %d: live set %v, oracle %v", batch, snapshotLive(snap), live)
		case len(snap.baseIDs) != nBaseIDs:
			t.Fatalf("batch %d: %d base items, model %d", batch, len(snap.baseIDs), nBaseIDs)
		case !slices.EqualFunc(snap.chunks, model.delta(), func(c *deltaChunk, p []int32) bool { return slices.Equal(c.ids, p) }):
			t.Fatalf("batch %d: delta chunks differ from the model's pages %v", batch, model.delta())
		case got.LayoutPages != len(model.pages):
			t.Fatalf("batch %d: LayoutPages %d, model %d", batch, got.LayoutPages, len(model.pages))
		case snap.CowStats() != st:
			t.Fatalf("batch %d: CowStats %+v, model %+v", batch, snap.CowStats(), st)
		case got.Cow != cow:
			t.Fatalf("batch %d: summed Cow %+v, model %+v", batch, got.Cow, cow)
		}

		req := RangeRequest(geom.Box(geom.V(64, 64, 64), geom.V(192, 192, 192)))
		var hits []Hit
		if _, err := snap.Index("flat").Do(context.Background(), req, func(h Hit) { hits = append(hits, h) }); err != nil {
			t.Fatal(err)
		}
		if want := oracleHits(live, req); !slices.Equal(hits, want) {
			t.Fatalf("batch %d: range hits %v, oracle %v", batch, hits, want)
		}
	}
}
