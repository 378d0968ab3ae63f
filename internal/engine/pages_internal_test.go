package engine

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// PagesInRanges is the one range→pages lookup of the contenders and of
// flat.Index (PagesInRange is a one-range call of it). These tests hold it to
// the per-range walks it replaced: for every range b, the pages carrying b's
// bit, in order, are the pages the old walk of that range named.

// refPages is the per-range walk: a contender's pages for q as PagesInRange
// named them before it became a one-range PagesInRanges.
func refPages(t testing.TB, ix contender, q geom.AABB) []pager.PageID {
	var out []pager.PageID
	switch x := ix.(type) {
	case *Flat:
		out = refSeedPages(x.idx, q)
	case *RTree:
		x.inRange(q, func(ni int32) { out = append(out, pager.PageID(ni)) })
	case *Grid:
		if x.g != nil {
			x.pageRuns(q, func(p pager.PageID) { out = append(out, p) })
		}
	case *Sharded:
		for i := range x.shards {
			sh := &x.shards[i]
			if sh.bounds.Intersects(q) {
				for _, p := range refPages(t, sh.sub, q) {
					out = append(out, sh.pageBase+p)
				}
			}
		}
	default:
		t.Fatalf("no reference walk for %T", ix)
	}
	return out
}

// inRange calls fn, in pre-order, on the index of every directory node whose
// box — and whose ancestors' boxes — intersect q.
func (r *RTree) inRange(q geom.AABB, fn func(int32)) {
	if len(r.dir.Nodes) > 0 && r.dir.Nodes[0].Box.Intersects(q) {
		r.walkRange(0, q, fn)
	}
}

func (r *RTree) walkRange(ni int32, q geom.AABB, fn func(int32)) {
	fn(ni)
	n := &r.dir.Nodes[ni]
	if n.Leaf() {
		return
	}
	for _, ci := range r.dir.KidsOf(n) {
		if r.dir.Nodes[ci].Box.Intersects(q) {
			r.walkRange(ci, q, fn)
		}
	}
}

// refSeedPages is FLAT's per-range walk: one Query of the seed directory.
func refSeedPages(idx *flat.Index, q geom.AABB) []pager.PageID {
	var out []pager.PageID
	if idx != nil {
		idx.Seed().Query(q, func(it rtree.Item) { out = append(out, pager.PageID(it.ID)) })
	}
	return out
}

// rangePager is the lookup under test.
type rangePager interface {
	PagesInRanges(dst []pager.RangePage, boxes []geom.AABB) []pager.RangePage
}

// checkPagesInRanges asserts that g's lookup of boxes keeps dst's prefix,
// reports windows in order, each page at most once per window with a nonzero
// mask, and that the pages carrying each range's bit are ref's for it.
func checkPagesInRanges(t *testing.T, name string, g rangePager, boxes []geom.AABB, ref func(geom.AABB) []pager.PageID) {
	t.Helper()
	sentinel := pager.RangePage{Page: -7, Window: -7, Mask: 7}
	hits := g.PagesInRanges([]pager.RangePage{sentinel}, boxes)
	if len(hits) == 0 || hits[0] != sentinel {
		t.Fatalf("%s: dst's prefix was not kept", name)
	}
	hits = hits[1:]
	seen := map[pager.RangePage]bool{}
	for i, h := range hits {
		if h.Mask == 0 {
			t.Fatalf("%s: hit %d (page %d) has no range", name, i, h.Page)
		}
		if i > 0 && h.Window < hits[i-1].Window {
			t.Fatalf("%s: window %d after window %d", name, h.Window, hits[i-1].Window)
		}
		if h.Mask&pager.WindowMask(len(boxes)-int(h.Window)*pager.RangeWindow) != h.Mask {
			t.Fatalf("%s: hit %d names a range past the last (mask %x)", name, i, h.Mask)
		}
		key := pager.RangePage{Page: h.Page, Window: h.Window}
		if seen[key] {
			t.Fatalf("%s: page %d reported twice in window %d", name, h.Page, h.Window)
		}
		seen[key] = true
	}
	for b, q := range boxes {
		var got []pager.PageID
		for _, h := range hits {
			if h.Window == int32(b/pager.RangeWindow) && h.Mask>>(b%pager.RangeWindow)&1 != 0 {
				got = append(got, h.Page)
			}
		}
		if want := ref(q); !slices.Equal(got, want) {
			t.Fatalf("%s: range %d of %d (%v): pages %v, per-range walk %v", name, b, len(boxes), q, got, want)
		}
	}
}

// rangeBoxes draws n ranges over an extent-sized volume: mostly boxes a walk
// would predict, with an occasional whole-volume, inverted, point or NaN one.
func rangeBoxes(rng *rand.Rand, n int, extent float64) []geom.AABB {
	boxes := make([]geom.AABB, n)
	for i := range boxes {
		c := geom.V(rng.Float64()*1.2*extent-0.1*extent, rng.Float64()*1.2*extent-0.1*extent, rng.Float64()*1.2*extent-0.1*extent)
		half := geom.V(rng.Float64()*extent/8, rng.Float64()*extent/8, rng.Float64()*extent/8)
		boxes[i] = geom.AABB{Min: c.Sub(half), Max: c.Add(half)}
		switch rng.Intn(24) {
		case 0:
			boxes[i] = geom.Box(geom.V(-1, -1, -1), geom.V(extent+1, extent+1, extent+1))
		case 1:
			boxes[i].Min, boxes[i].Max = boxes[i].Max, boxes[i].Min
		case 2:
			boxes[i].Max = boxes[i].Min
		case 3:
			// NaN in one of the six coordinates.
			c := [6]*float64{&boxes[i].Min.X, &boxes[i].Min.Y, &boxes[i].Min.Z, &boxes[i].Max.X, &boxes[i].Max.Y, &boxes[i].Max.Z}
			*c[rng.Intn(6)] = math.NaN()
		case 4:
			boxes[i].Min.X = math.Inf(-1)
		}
	}
	return boxes
}

// pagingContenders returns every contender built over items, twice: with
// the default layout and with small pages and fanouts, for deeper
// directories.
func pagingContenders(t testing.TB, items []rtree.Item) []contender {
	small := flat.Options{PageSize: 4, SeedFanout: 4}
	all := append(allContenders(),
		NewFlat(small), NewRTree(4), NewGrid(GridOptions{PageSize: 4}),
		NewSharded(ShardedOptions{Shards: 3, Flat: small}))
	for _, ix := range all {
		if err := ix.Build(items); err != nil {
			t.Fatal(err)
		}
	}
	return all
}

// checkContenders runs checkPagesInRanges on every contender and on the
// flat.Index under each FLAT contender.
func checkContenders(t *testing.T, all []contender, boxes []geom.AABB) {
	t.Helper()
	for _, ix := range all {
		ix := ix
		checkPagesInRanges(t, ix.Name(), ix, boxes, func(q geom.AABB) []pager.PageID { return refPages(t, ix, q) })
		if f, ok := ix.(*Flat); ok {
			checkPagesInRanges(t, "flat.Index", f.idx, boxes, func(q geom.AABB) []pager.PageID { return refSeedPages(f.idx, q) })
		}
	}
}

// TestPagesInRangesMatchPerRangeWalks: random sets of 1 to 70 ranges, more
// than one mask window among them, over every contender and flat.Index;
// PagesInRange is the one-range lookup; empty contenders name no page.
func TestPagesInRangesMatchPerRangeWalks(t *testing.T) {
	items := scatteredItems(3000, 100, 41)
	all := pagingContenders(t, items)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(70)
		if trial < 4 {
			n = []int{1, 63, 64, 65}[trial]
		}
		checkContenders(t, all, rangeBoxes(rng, n, 100))
	}
	q := geom.BoxAround(geom.V(50, 50, 50), 12)
	for _, ix := range all {
		if got, want := ix.PagesInRange(q), refPages(t, ix, q); !slices.Equal(got, want) {
			t.Errorf("%s: PagesInRange %v, per-range walk %v", ix.Name(), got, want)
		}
	}
	for _, ix := range allContenders() {
		if hits := ix.PagesInRanges(nil, []geom.AABB{q}); len(hits) != 0 {
			t.Errorf("unbuilt %s names pages %v", ix.Name(), hits)
		}
	}
}

var (
	fuzzPagingOnce sync.Once
	fuzzPaging     []contender
)

// FuzzPagesInRanges is TestPagesInRangesMatchPerRangeWalks over fuzzed range
// sets: a seed, a count of ranges and their scale.
func FuzzPagesInRanges(f *testing.F) {
	f.Add(int64(1), uint8(1), 10.0)
	f.Add(int64(2), uint8(8), 20.0)
	f.Add(int64(3), uint8(64), 5.0)
	f.Add(int64(4), uint8(70), 100.0)
	f.Add(int64(5), uint8(129), 1.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, scale float64) {
		fuzzPagingOnce.Do(func() { fuzzPaging = pagingContenders(t, scatteredItems(1500, 100, 47)) })
		if n == 0 {
			n = 1
		}
		boxes := rangeBoxes(rand.New(rand.NewSource(seed)), int(n), 100)
		for i := range boxes {
			c, half := boxes[i].Center(), boxes[i].Size().Scale(0.5)
			boxes[i] = geom.AABB{Min: c.Sub(half.Scale(scale / 10)), Max: c.Add(half.Scale(scale / 10))}
		}
		checkContenders(t, fuzzPaging, boxes)
	})
}
