package rtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"neurospatial/internal/geom"
)

// randItems produces n random small boxes in a cube of the given extent.
func randItems(rng *rand.Rand, n int, extent float64) []Item {
	items := make([]Item, n)
	for i := range items {
		c := geom.V(rng.Float64()*extent, rng.Float64()*extent, rng.Float64()*extent)
		half := rng.Float64()*extent/100 + extent/1000
		items[i] = Item{Box: geom.BoxAround(c, half), ID: int32(i)}
	}
	return items
}

// bruteQuery is the oracle for range queries.
func bruteQuery(items []Item, q geom.AABB) map[int32]bool {
	out := make(map[int32]bool)
	for _, it := range items {
		if it.Box.Intersects(q) {
			out[it.ID] = true
		}
	}
	return out
}

func collectIDs(t *Tree, q geom.AABB) map[int32]bool {
	got := make(map[int32]bool)
	t.Query(q, func(it Item) {
		if got[it.ID] {
			panic("duplicate result")
		}
		got[it.ID] = true
	})
	return got
}

func sameIDSet(t *testing.T, got, want map[int32]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result size %d, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("missing ID %d", id)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Error("fanout 3 accepted")
	}
	tr, err := New(0)
	if err != nil || tr.Fanout() != DefaultFanout {
		t.Errorf("default fanout: %v %d", err, tr.Fanout())
	}
	if tr.Height() != 0 || tr.Size() != 0 {
		t.Error("empty tree metadata wrong")
	}
}

func TestSTREqualsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	items := randItems(rng, 3000, 100)
	tr, err := STR(items, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 3000 {
		t.Fatalf("size = %d", tr.Size())
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 3000 {
		t.Fatalf("invariants: %v (n=%d)", err, n)
	}
	for i := 0; i < 50; i++ {
		q := geom.BoxAround(geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100),
			rng.Float64()*15+1)
		sameIDSet(t, collectIDs(tr, q), bruteQuery(items, q))
	}
	// Whole-space query returns everything.
	all := collectIDs(tr, tr.Bounds())
	if len(all) != 3000 {
		t.Errorf("full query returned %d", len(all))
	}
}

func TestSTRLeavesAreFull(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	items := randItems(rng, 1000, 50)
	tr, _ := STR(items, 10)
	var leafSizes []int
	tr.WalkLeaves(func(_ geom.AABB, items []Item) {
		leafSizes = append(leafSizes, len(items))
	})
	total := 0
	full := 0
	for _, s := range leafSizes {
		total += s
		if s == 10 {
			full++
		}
	}
	if total != 1000 {
		t.Fatalf("leaves hold %d items", total)
	}
	// STR packs: all but a few boundary leaves are full.
	if float64(full) < 0.8*float64(len(leafSizes)) {
		t.Errorf("only %d/%d leaves full", full, len(leafSizes))
	}
}

func TestInsertEqualsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	items := randItems(rng, 2000, 100)
	tr, _ := New(8)
	for _, it := range items {
		tr.Insert(it)
	}
	if tr.Size() != 2000 {
		t.Fatalf("size = %d", tr.Size())
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 2000 {
		t.Fatalf("invariants: %v (n=%d)", err, n)
	}
	for i := 0; i < 50; i++ {
		q := geom.BoxAround(geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100),
			rng.Float64()*10+1)
		sameIDSet(t, collectIDs(tr, q), bruteQuery(items, q))
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	items := randItems(rng, 800, 60)
	tr, _ := STR(items, 8)
	// Delete a random half.
	perm := rng.Perm(len(items))
	deleted := make(map[int32]bool)
	for _, i := range perm[:400] {
		if !tr.Delete(items[i]) {
			t.Fatalf("Delete(%d) failed", items[i].ID)
		}
		deleted[items[i].ID] = true
	}
	if tr.Size() != 400 {
		t.Fatalf("size after deletes = %d", tr.Size())
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 400 {
		t.Fatalf("invariants after deletes: %v (n=%d)", err, n)
	}
	// Deleting again fails.
	if tr.Delete(items[perm[0]]) {
		t.Error("double delete succeeded")
	}
	// Remaining items still queryable.
	var remaining []Item
	for _, it := range items {
		if !deleted[it.ID] {
			remaining = append(remaining, it)
		}
	}
	for i := 0; i < 30; i++ {
		q := geom.BoxAround(geom.V(rng.Float64()*60, rng.Float64()*60, rng.Float64()*60),
			rng.Float64()*8+1)
		sameIDSet(t, collectIDs(tr, q), bruteQuery(remaining, q))
	}
	// Delete everything.
	for _, it := range remaining {
		if !tr.Delete(it) {
			t.Fatalf("final Delete(%d) failed", it.ID)
		}
	}
	if tr.Size() != 0 || tr.Height() != 0 {
		t.Errorf("tree not empty: size=%d height=%d", tr.Size(), tr.Height())
	}
}

func TestMixedInsertDeleteRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	tr, _ := New(6)
	live := make(map[int32]Item)
	nextID := int32(0)
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			it := Item{
				Box: geom.BoxAround(geom.V(rng.Float64()*40, rng.Float64()*40, rng.Float64()*40),
					rng.Float64()+0.05),
				ID: nextID,
			}
			nextID++
			tr.Insert(it)
			live[it.ID] = it
		} else {
			// Delete a random live item.
			var victim Item
			for _, it := range live {
				victim = it
				break
			}
			if !tr.Delete(victim) {
				t.Fatalf("step %d: delete failed", step)
			}
			delete(live, victim.ID)
		}
		if step%500 == 0 {
			if n, err := tr.CheckInvariants(); err != nil || n != len(live) {
				t.Fatalf("step %d: invariants: %v (n=%d live=%d)", step, err, n, len(live))
			}
		}
	}
	if tr.Size() != len(live) {
		t.Fatalf("size=%d live=%d", tr.Size(), len(live))
	}
	q := geom.BoxAround(geom.V(20, 20, 20), 10)
	want := make(map[int32]bool)
	for _, it := range live {
		if it.Box.Intersects(q) {
			want[it.ID] = true
		}
	}
	sameIDSet(t, collectIDs(tr, q), want)
}

func TestSeedInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	items := randItems(rng, 2000, 100)
	tr, _ := STR(items, 16)
	for i := 0; i < 100; i++ {
		q := geom.BoxAround(geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100),
			rng.Float64()*10+0.5)
		want := bruteQuery(items, q)
		it, stats, ok := tr.SeedInRange(q)
		if ok != (len(want) > 0) {
			t.Fatalf("seed ok=%v but %d matches exist", ok, len(want))
		}
		if ok {
			if !want[it.ID] {
				t.Fatalf("seed returned non-matching item %d", it.ID)
			}
			if stats.NodeAccesses() == 0 {
				t.Fatal("seed reported no node accesses")
			}
		}
	}
	// Empty tree.
	empty, _ := New(8)
	if _, _, ok := empty.SeedInRange(geom.BoxAround(geom.V(0, 0, 0), 1)); ok {
		t.Error("seed found item in empty tree")
	}
}

// Seed queries in dense regions should touch about one node per level —
// the property FLAT's first phase relies on.
func TestSeedCheapInDenseRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	items := randItems(rng, 5000, 50)
	tr, _ := STR(items, 16)
	q := geom.BoxAround(geom.V(25, 25, 25), 10) // dense center: thousands match
	_, stats, ok := tr.SeedInRange(q)
	if !ok {
		t.Fatal("no seed found in dense region")
	}
	if stats.NodeAccesses() > int64(3*tr.Height()) {
		t.Errorf("seed touched %d nodes for height %d", stats.NodeAccesses(), tr.Height())
	}
}

func TestQueryStatsPerLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	items := randItems(rng, 4000, 100)
	tr, _ := STR(items, 8)
	q := geom.BoxAround(geom.V(50, 50, 50), 20)
	stats := tr.Query(q, func(Item) {})
	if stats.Levels != tr.Height() {
		t.Fatalf("levels in stats = %d, height = %d", stats.Levels, tr.Height())
	}
	// Exactly one root access.
	if stats.LevelNodes[tr.Height()-1] != 1 {
		t.Errorf("root accesses = %d", stats.LevelNodes[tr.Height()-1])
	}
	// Leaf accesses dominate.
	if stats.LevelNodes[0] == 0 {
		t.Error("no leaf accesses for a central query")
	}
	if stats.Results == 0 || stats.EntriesTested < stats.Results {
		t.Errorf("results=%d tested=%d", stats.Results, stats.EntriesTested)
	}
	if stats.NodeAccesses() <= int64(tr.Height()) {
		t.Error("central query should touch multiple nodes per level")
	}
}

func TestPackSTR(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	items := randItems(rng, 777, 60)
	tiles := PackSTR(items, 16)
	total := 0
	seen := make(map[int32]bool)
	for _, tile := range tiles {
		if len(tile) == 0 || len(tile) > 16 {
			t.Fatalf("tile size %d", len(tile))
		}
		total += len(tile)
		for _, it := range tile {
			if seen[it.ID] {
				t.Fatal("item in two tiles")
			}
			seen[it.ID] = true
		}
	}
	if total != 777 {
		t.Fatalf("tiles cover %d items", total)
	}
	if PackSTR(nil, 16) != nil {
		t.Error("PackSTR(nil) != nil")
	}
}

func TestNodeView(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	items := randItems(rng, 300, 30)
	tr, _ := STR(items, 8)
	root, ok := tr.Root()
	if !ok {
		t.Fatal("no root view")
	}
	count := 0
	var walk func(v NodeView)
	walk = func(v NodeView) {
		if v.IsLeaf() {
			count += len(v.Items())
			if v.Level() != 0 {
				t.Fatal("leaf at nonzero level")
			}
			return
		}
		for i := 0; i < v.NumChildren(); i++ {
			c := v.Child(i)
			if !v.Box().ContainsBox(c.Box()) {
				t.Fatal("child escapes parent in view")
			}
			walk(c)
		}
	}
	walk(root)
	if count != 300 {
		t.Fatalf("view walk found %d items", count)
	}
	empty, _ := New(8)
	if _, ok := empty.Root(); ok {
		t.Error("empty tree returned a root view")
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr, _ := New(8)
	if stats := tr.Query(geom.BoxAround(geom.V(0, 0, 0), 1), func(Item) {
		t.Error("visit on empty tree")
	}); stats.NodeAccesses() != 0 {
		t.Error("empty query touched nodes")
	}
	if tr.Count(geom.BoxAround(geom.V(0, 0, 0), 1)) != 0 {
		t.Error("empty count nonzero")
	}
}

// Property (testing/quick): for arbitrary item sets, an STR-built tree and a
// brute-force scan agree on the count of items intersecting a query derived
// from the same coordinates.
func TestQuickSTRCountMatchesBrute(t *testing.T) {
	f := func(seed int64, nRaw uint8, qx, qy, qz, qr float64) bool {
		n := int(nRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		items := randItems(rng, n, 50)
		tr, err := STR(items, 8)
		if err != nil {
			return false
		}
		clamp := func(v float64) float64 {
			if v != v || v > 1e6 || v < -1e6 { // NaN or extreme
				return 25
			}
			return math.Mod(math.Abs(v), 50)
		}
		q := geom.BoxAround(geom.V(clamp(qx), clamp(qy), clamp(qz)), clamp(qr)/2+0.1)
		want := 0
		for _, it := range items {
			if it.Box.Intersects(q) {
				want++
			}
		}
		return tr.Count(q) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): insertion order never changes query results.
func TestQuickInsertOrderInvariance(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 2
		rng := rand.New(rand.NewSource(seed))
		items := randItems(rng, n, 30)
		a, _ := New(6)
		b, _ := New(6)
		for _, it := range items {
			a.Insert(it)
		}
		perm := rng.Perm(n)
		for _, i := range perm {
			b.Insert(items[i])
		}
		q := geom.BoxAround(geom.V(15, 15, 15), 10)
		return a.Count(q) == b.Count(q) && a.Size() == b.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
