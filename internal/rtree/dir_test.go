package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"neurospatial/internal/geom"
)

// dirTrees builds the three kinds of tree a Dir is lowered from over items:
// STR, insertion (Guttman's splits), and FromLeafRuns over the insertion
// tree's leaves, whose runs are irregular where STR's are full.
func dirTrees(items []Item, fanout int) (map[string]*Tree, error) {
	str, err := STR(items, fanout)
	if err != nil {
		return nil, err
	}
	ins, err := New(fanout)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		ins.Insert(it)
	}
	var leaf []Item
	var runs []int32
	ins.WalkLeaves(func(_ geom.AABB, items []Item) {
		leaf = append(leaf, items...)
		runs = append(runs, int32(len(items)))
	})
	runsTree, err := FromLeafRuns(leaf, runs, fanout)
	if err != nil {
		return nil, err
	}
	return map[string]*Tree{"str": str, "insertion": ins, "leaf-runs": runsTree}, nil
}

// dirMatchesTree lowers tr and holds the Dir to it: the same nodes in
// pre-order (box, level, child order, leaf entries), and for every query the
// same IDs in the same order with the same QueryStats.
func dirMatchesTree(tr *Tree, qs []geom.AABB) error {
	d := Lower(tr)
	if d.Bounds() != tr.Bounds() || d.Height() != tr.Height() || len(d.Items) != tr.Size() {
		return fmt.Errorf("dir bounds %v height %d items %d, tree %v %d %d",
			d.Bounds(), d.Height(), len(d.Items), tr.Bounds(), tr.Height(), tr.Size())
	}
	if root, ok := tr.Root(); ok {
		if next, err := sameNodes(&d, 0, root); err != nil {
			return err
		} else if next != len(d.Nodes) {
			return fmt.Errorf("dir has %d nodes, tree %d", len(d.Nodes), next)
		}
	} else if len(d.Nodes) != 0 {
		return fmt.Errorf("empty tree lowered to %d nodes", len(d.Nodes))
	}
	for _, q := range qs {
		var want, got []int32
		wst := tr.Query(q, func(it Item) { want = append(want, it.ID) })
		gst := d.Query(q, func(it Item) { got = append(got, it.ID) })
		if !slices.Equal(got, want) || gst != wst {
			return fmt.Errorf("query %v: dir %v %+v, tree %v %+v", q, got, gst, want, wst)
		}
	}
	return nil
}

// sameNodes compares the subtree under v with the Dir's nodes from index i on,
// in pre-order, and returns the index past the subtree.
func sameNodes(d *Dir, i int, v NodeView) (int, error) {
	n := &d.Nodes[i]
	if n.Box != v.Box() || int(n.Level) != v.Level() || n.Leaf() != v.IsLeaf() {
		return 0, fmt.Errorf("node %d: box %v level %d, tree %v %d", i, n.Box, n.Level, v.Box(), v.Level())
	}
	if n.Leaf() {
		if !slices.Equal(d.ItemsOf(n), v.Items()) {
			return 0, fmt.Errorf("leaf %d: entries %v, tree %v", i, d.ItemsOf(n), v.Items())
		}
		return i + 1, nil
	}
	kids := d.KidsOf(n)
	if len(kids) != v.NumChildren() {
		return 0, fmt.Errorf("node %d: %d kids, tree %d", i, len(kids), v.NumChildren())
	}
	next := i + 1
	for c := range kids {
		if int(kids[c]) != next {
			return 0, fmt.Errorf("node %d: kid %d is node %d, want %d", i, c, kids[c], next)
		}
		var err error
		if next, err = sameNodes(d, next, v.Child(c)); err != nil {
			return 0, err
		}
	}
	return next, nil
}

// dirQueries returns query boxes over bounds: random boxes of several sizes,
// stabs at item centers (where overlapping MBRs all meet the query), one box
// covering everything, one missing everything, and an empty box.
func dirQueries(items []Item, bounds geom.AABB, n int, seed int64) []geom.AABB {
	rng := rand.New(rand.NewSource(seed))
	size := bounds.Max.Sub(bounds.Min)
	at := func() geom.Vec {
		return geom.V(bounds.Min.X+rng.Float64()*size.X, bounds.Min.Y+rng.Float64()*size.Y,
			bounds.Min.Z+rng.Float64()*size.Z)
	}
	qs := []geom.AABB{bounds.Expand(1), geom.BoxAround(bounds.Max.Add(geom.V(10, 10, 10)), 1), geom.EmptyAABB()}
	for i := 0; i < n; i++ {
		half := (size.X + size.Y + size.Z) / 3 * []float64{0.01, 0.05, 0.2}[i%3]
		qs = append(qs, geom.BoxAround(at(), half))
		if len(items) > 0 {
			c := items[rng.Intn(len(items))].Box.Center()
			qs = append(qs, geom.Box(c, c), geom.BoxAround(c, half))
		}
	}
	return qs
}

func TestDirMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sets := map[string][]Item{
		"empty":    nil,
		"one-leaf": randItems(rng, 3, 10),
		"random":   randItems(rng, 1500, 100),
		"tissue":   tissueItems(t, 16),
	}
	for name, set := range adversarialSets() {
		sets[name] = set
	}
	for name, items := range sets {
		bounds := geom.EmptyAABB()
		for _, it := range items {
			bounds = bounds.Union(it.Box)
		}
		if len(items) == 0 {
			bounds = geom.BoxAround(geom.V(0, 0, 0), 10)
		}
		qs := dirQueries(items, bounds, 60, 43)
		for _, fanout := range []int{4, 5, 16, 64} {
			trees, err := dirTrees(items, fanout)
			if err != nil {
				t.Fatal(err)
			}
			for kind, tr := range trees {
				if err := dirMatchesTree(tr, qs); err != nil {
					t.Fatalf("%s/%s/fanout %d: %v", name, kind, fanout, err)
				}
			}
		}
	}
}

// TestLowerSharesNothing: a Dir answers for the tree as it was lowered, however
// the tree changes afterwards.
func TestLowerSharesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items := randItems(rng, 300, 50)
	tr, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items[:200] {
		tr.Insert(it)
	}
	d := Lower(tr)
	q := geom.BoxAround(geom.V(25, 25, 25), 15)
	var before []int32
	d.Query(q, func(it Item) { before = append(before, it.ID) })
	for _, it := range items[200:] {
		tr.Insert(it)
	}
	var after []int32
	d.Query(q, func(it Item) { after = append(after, it.ID) })
	if !slices.Equal(before, after) {
		t.Fatalf("inserting into the tree moved its lowered answer: %v, then %v", before, after)
	}
}

// FuzzDirMatchesTree lowers trees over arbitrary boxes and fanouts and holds
// the Dir to the tree on arbitrary query boxes. Input: one fanout byte, then
// 52-byte records — six float64 corners and an int32 ID — the first 1 + n%4
// of which are queries and the rest items. NaN corners are outside STR's
// contract and are skipped.
func FuzzDirMatchesTree(f *testing.F) {
	rec := func(b geom.AABB, id int32) []byte {
		var out []byte
		for _, v := range []float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return binary.LittleEndian.AppendUint32(out, uint32(id))
	}
	seed := []byte{5}
	seed = append(seed, rec(geom.BoxAround(geom.V(1, 1, 1), 2), 0)...)
	for i, it := range randItems(rand.New(rand.NewSource(44)), 40, 10) {
		seed = append(seed, rec(it.Box, int32(i%7))...)
	}
	f.Add(seed)
	f.Add([]byte{0})
	f.Add(append([]byte{4}, rec(geom.Box(geom.V(0, 0, 0), geom.V(0, 0, 0)), 3)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fanout := 4 + int(data[0])%61
		data = data[1:]
		var boxes []geom.AABB
		var ids []int32
		for ; len(data) >= 52; data = data[52:] {
			var v [6]float64
			nan := false
			for k := range v {
				v[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
				nan = nan || math.IsNaN(v[k])
			}
			if nan {
				continue
			}
			boxes = append(boxes, geom.Box(geom.V(v[0], v[1], v[2]), geom.V(v[3], v[4], v[5])))
			ids = append(ids, int32(binary.LittleEndian.Uint32(data[48:])))
		}
		if len(boxes) == 0 {
			return
		}
		nq := min(1+len(boxes)%4, len(boxes))
		var items []Item
		for i := nq; i < len(boxes); i++ {
			items = append(items, Item{Box: boxes[i], ID: ids[i]})
		}
		trees, err := dirTrees(items, fanout)
		if err != nil {
			t.Fatal(err)
		}
		for kind, tr := range trees {
			if err := dirMatchesTree(tr, boxes[:nq]); err != nil {
				t.Fatalf("%s/fanout %d: %v", kind, fanout, err)
			}
		}
	})
}
