package engine

import (
	"context"
	"math"
	"slices"
	"testing"

	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// The contenders keep each item's box once, in their pages' coordinate
// sidecar, and read it back through a slot map: these tests pin that what
// comes back is the input box bit for bit, however the index was made, and
// that a build which fails leaves nothing half-installed behind.

// sameBits reports whether a and b are the same box to the bit (so −0 differs
// from +0).
func sameBits(a, b geom.AABB) bool {
	x := [6]float64{a.Min.X, a.Min.Y, a.Min.Z, a.Max.X, a.Max.Y, a.Max.Z}
	y := [6]float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// geometryItems is scatteredItems with a few boxes whose bits a copy could
// lose: signed zeros, a point box, a box one subnormal wide.
func geometryItems(n int) []rtree.Item {
	items := scatteredItems(n, 100, 29)
	negZero := math.Copysign(0, -1)
	items[3].Box = geom.AABB{Min: geom.V(negZero, 10, negZero), Max: geom.V(0, 11, 1)}
	items[5].Box = geom.Box(geom.V(20, 20, 20), geom.V(20, 20, 20))
	items[8].Box = geom.AABB{Min: geom.V(30, 30, 30), Max: geom.V(30, 30, 30+math.SmallestNonzeroFloat64)}
	return items
}

// checkItemBoxes asserts that boxOf returns every item's input box.
func checkItemBoxes(t *testing.T, name string, boxOf func(int32) geom.AABB, items []rtree.Item) {
	t.Helper()
	for _, it := range items {
		if got := boxOf(it.ID); !sameBits(got, it.Box) {
			t.Fatalf("%s: item %d box %v, input %v", name, it.ID, got, it.Box)
		}
	}
}

// allContenders returns one unbuilt contender of every kind.
func allContenders() []contender {
	return []contender{
		NewFlat(flat.DefaultOptions()), NewRTree(0), NewGrid(GridOptions{}),
		NewSharded(ShardedOptions{Shards: 4}),
	}
}

func TestItemBoxesMatchInput(t *testing.T) {
	items := geometryItems(2000)

	t.Run("build", func(t *testing.T) {
		for _, ix := range allContenders() {
			if err := ix.Build(items); err != nil {
				t.Fatal(err)
			}
			checkItemBoxes(t, ix.Name(), ix.itemBoxes(), items)
		}
		fx, err := flat.Build(items, flat.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		checkItemBoxes(t, "flat.Index", fx.ItemBox, items)
	})

	t.Run("durable-thaw", func(t *testing.T) {
		dir := t.TempDir()
		opts := DatasetOptions{Contenders: []string{"flat", "rtree", "grid", "sharded"}}
		dd, err := CreateDataset(dir, items, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := dd.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		snap := re.Current()
		for _, b := range snap.bases {
			checkItemBoxes(t, "thawed "+b.Name(), b.(contender).itemBoxes(), items)
		}
		checkItemBoxes(t, "thawed snapshot", func(id int32) geom.AABB {
			box, ok := snap.ItemBox(id)
			if !ok {
				t.Fatalf("thawed snapshot: item %d not live", id)
			}
			return box
		}, items)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("wrap-rtree-non-dense", func(t *testing.T) {
		// Every other ID, so half of them lie past the tree's size: those have
		// no slot, and the rest must still read back their own boxes.
		sparse := slices.Clone(items)
		for i := range sparse {
			sparse[i].ID = int32(2 * i)
		}
		tr, err := rtree.STR(sparse, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := WrapRTree(tr)
		if err != nil {
			t.Fatal(err)
		}
		inRange := slices.DeleteFunc(sparse, func(it rtree.Item) bool { return int(it.ID) >= tr.Size() })
		if len(inRange) == 0 {
			t.Fatal("degenerate: no ID below the tree's size")
		}
		checkItemBoxes(t, "WrapRTree", r.itemBoxes(), inRange)
	})
}

// TestFailedBuildLeavesIndexUsable builds every contender kind with input it
// rejects, fresh and after a good build: the index must be left empty or as
// it was, and Do of every kind must answer accordingly, without panicking.
func TestFailedBuildLeavesIndexUsable(t *testing.T) {
	items := scatteredItems(800, 100, 30)
	nonDense := slices.Clone(items)
	nonDense[7].ID = int32(len(items) + 5)
	c := geom.V(50, 50, 50)
	reqs := []Request{RangeRequest(geom.BoxAround(c, 12)), KNNRequest(c, 9), PointRequest(c), WithinDistanceRequest(c, 10)}
	cases := []struct {
		name string
		ix   func() SpatialIndex
		bad  []rtree.Item
		// rebuild is whether the same index can first be built from items.
		rebuild bool
	}{
		{"flat/non-dense", func() SpatialIndex { return NewFlat(flat.DefaultOptions()) }, nonDense, true},
		{"rtree/fanout", func() SpatialIndex { return NewRTree(2) }, items, false},
		{"grid/non-dense", func() SpatialIndex { return NewGrid(GridOptions{}) }, nonDense, true},
		{"sharded/non-dense", func() SpatialIndex { return NewSharded(ShardedOptions{}) }, nonDense, true},
		{"sharded/sub-fails", func() SpatialIndex { return NewSharded(ShardedOptions{Flat: flat.Options{SeedFanout: 2}}) }, items, false},
	}
	do := func(name string, ix SpatialIndex, req Request) (hits []Hit) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("%s/%s: Do panicked: %v", name, req.Kind, p)
			}
		}()
		if _, err := ix.Do(context.Background(), req, func(h Hit) { hits = append(hits, h) }); err != nil {
			t.Fatalf("%s/%s: %v", name, req.Kind, err)
		}
		return hits
	}
	for _, tc := range cases {
		ix := tc.ix()
		if err := ix.Build(tc.bad); err == nil {
			t.Fatalf("%s: Build succeeded", tc.name)
		}
		if n := ix.NumItems(); n != 0 {
			t.Errorf("%s: fresh index holds %d items after a failed build", tc.name, n)
		}
		for _, req := range reqs {
			if hits := do(tc.name, ix, req); len(hits) != 0 {
				t.Errorf("%s/%s: empty index answered %d hits", tc.name, req.Kind, len(hits))
			}
		}
		if !tc.rebuild {
			continue
		}
		ix = tc.ix()
		if err := ix.Build(items); err != nil {
			t.Fatal(err)
		}
		var before [][]Hit
		for _, req := range reqs {
			before = append(before, do(tc.name, ix, req))
		}
		if err := ix.Build(tc.bad); err == nil {
			t.Fatalf("%s: rebuild succeeded", tc.name)
		}
		if n := ix.NumItems(); n != 0 && n != len(items) {
			t.Errorf("%s: %d items after a failed rebuild, want 0 or %d", tc.name, n, len(items))
		}
		for i, req := range reqs {
			hits := do(tc.name+" (rebuilt)", ix, req)
			if ix.NumItems() == 0 && len(hits) != 0 || ix.NumItems() != 0 && !slices.Equal(hits, before[i]) {
				t.Errorf("%s/%s: after a failed rebuild holding %d items, %d hits (before it, %d)",
					tc.name, req.Kind, ix.NumItems(), len(hits), len(before[i]))
			}
		}
	}
}
