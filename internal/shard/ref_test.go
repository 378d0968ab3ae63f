package shard_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"neurospatial/internal/circuit"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
	"neurospatial/internal/shard"
)

// refPartition is Partition as it was before the key sort: sort.Slice over a
// copy of the items at every cut, and again by ID per part. It is the oracle
// for "shard membership did not move" — the sharded contender's global page
// space, and every durable page file holding one, follow from it.
func refPartition(items []rtree.Item, k int) []shard.Part {
	if len(items) == 0 {
		return nil
	}
	if k > len(items) {
		k = len(items)
	}
	if k < 1 {
		k = 1
	}
	var parts []shard.Part
	refSplit(append([]rtree.Item(nil), items...), k, &parts)
	for i := range parts {
		its := append([]rtree.Item(nil), parts[i].Items...)
		sort.Slice(its, func(a, b int) bool { return its[a].ID < its[b].ID })
		b := geom.EmptyAABB()
		for _, it := range its {
			b = b.Union(it.Box)
		}
		parts[i] = shard.Part{Items: its, Bounds: b}
	}
	return parts
}

func refSplit(work []rtree.Item, k int, out *[]shard.Part) {
	if k <= 1 || len(work) <= 1 {
		*out = append(*out, shard.Part{Items: work})
		return
	}
	cb := geom.EmptyAABB()
	for _, it := range work {
		cb = cb.ExtendPoint(it.Box.Center())
	}
	s, axis := cb.Size(), 0
	if s.Y > s.Axis(axis) {
		axis = 1
	}
	if s.Z > s.Axis(axis) {
		axis = 2
	}
	sort.Slice(work, func(a, b int) bool {
		ca, cb := work[a].Box.Center().Axis(axis), work[b].Box.Center().Axis(axis)
		if ca != cb {
			return ca < cb
		}
		return work[a].ID < work[b].ID
	})
	kl := k / 2
	cut := (len(work)*kl + k/2) / k
	if cut < kl {
		cut = kl
	}
	if max := len(work) - (k - kl); cut > max {
		cut = max
	}
	refSplit(work[:cut], kl, out)
	refSplit(work[cut:], k-kl, out)
}

func tissueItems(t testing.TB, neurons int) []rtree.Item {
	t.Helper()
	p := circuit.DefaultParams()
	p.Neurons = neurons
	p.Layers = circuit.CorticalLayers()
	p.Seed = 1
	c, err := circuit.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]rtree.Item, len(c.Elements))
	for i := range c.Elements {
		items[i] = rtree.Item{Box: c.Elements[i].Bounds(), ID: c.Elements[i].ID}
	}
	return items
}

// adversarialSets mirrors internal/rtree's: inputs whose centers tie, where
// only the ID tie-break makes the cut a function of the item set.
func adversarialSets() map[string][]rtree.Item {
	sets := make(map[string][]rtree.Item)

	same := make([]rtree.Item, 700)
	for i := range same {
		same[i] = rtree.Item{Box: geom.BoxAround(geom.V(5, 5, 5), 1+float64(i%7)), ID: int32(i)}
	}
	sets["equal-centers"] = same

	dup := gridItems(300)
	for i := 0; i < 300; i++ {
		dup = append(dup, rtree.Item{Box: dup[i].Box, ID: int32(300 + i)})
	}
	sets["duplicated-boxes"] = dup

	negZero := math.Copysign(0, -1)
	zeros := make([]rtree.Item, 600)
	for i := range zeros {
		c := geom.V(0, 0, float64(i%5))
		if i%2 == 1 {
			c = geom.V(negZero, negZero, float64(i%5))
		}
		zeros[i] = rtree.Item{Box: geom.AABB{Min: c, Max: c}, ID: int32(i)}
	}
	sets["signed-zeros"] = zeros
	return sets
}

func TestPartitionMatchesReference(t *testing.T) {
	sets := adversarialSets()
	sets["tissue-64"] = tissueItems(t, 64)
	if !testing.Short() {
		sets["tissue-256"] = tissueItems(t, 256)
	}
	// Fewer items than shards at k = 7, 8: Partition clamps k to n, one item
	// per part.
	sets["five-items"] = gridItems(5)
	for name, items := range sets {
		for _, k := range []int{1, 2, 3, 4, 7, 8} {
			if got, want := shard.Partition(items, k), refPartition(items, k); !reflect.DeepEqual(got, want) {
				t.Errorf("%s k=%d: parts differ from the reference", name, k)
			}
		}
	}
}

func TestPartitionInputOrderInvariant(t *testing.T) {
	sets := adversarialSets()
	sets["tissue-64"] = tissueItems(t, 64)
	for name, items := range sets {
		want := shard.Partition(items, 4)
		for seed := int64(1); seed <= 4; seed++ {
			in := append([]rtree.Item(nil), items...)
			rand.New(rand.NewSource(seed)).Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			if got := shard.Partition(in, 4); !reflect.DeepEqual(got, want) {
				t.Errorf("%s shuffle %d: parts depend on input order", name, seed)
			}
		}
	}
}

// TestPartitionPartsDoNotAlias pins the capped slices: parts share one array,
// so an append to one must not reach the next.
func TestPartitionPartsDoNotAlias(t *testing.T) {
	parts := shard.Partition(gridItems(100), 4)
	next := parts[1].Items[0]
	_ = append(parts[0].Items, rtree.Item{ID: -1})
	if parts[1].Items[0] != next {
		t.Fatal("append to one part overwrote its neighbour")
	}
}

// FuzzPartitionMatchesReference holds Partition to refPartition over
// arbitrary boxes: 6 bytes per item, each picking one coordinate of the box
// (min and max per axis, in either order) from a palette that makes tied
// centers, ±0 centers and far-apart magnitudes common. k is 1 to 8; its high
// bit numbers the items in reverse, so input order and ID order differ.
func FuzzPartitionMatchesReference(f *testing.F) {
	palette := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 3, 3, 7.25, -2, 1e300, -1e300, 1e-300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 42, 100}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 5, 5, 5, 5, 5, 5}, uint8(2))
	f.Add([]byte{9, 10, 2, 2, 14, 15, 10, 9, 3, 3, 15, 14, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6}, uint8(0x83))
	f.Add([]byte{}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		var items []rtree.Item
		for ; len(data) >= 6; data = data[6:] {
			c := func(i int) float64 { return palette[int(data[i])%len(palette)] }
			items = append(items, rtree.Item{Box: geom.AABB{
				Min: geom.V(c(0), c(2), c(4)), Max: geom.V(c(1), c(3), c(5)),
			}, ID: int32(len(items))})
		}
		if k&0x80 != 0 {
			for i := range items {
				items[i].ID = int32(len(items) - 1 - i)
			}
		}
		parts := int(k%8) + 1
		if got, want := shard.Partition(items, parts), refPartition(items, parts); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d items, k=%d: parts %v, want %v", len(items), parts, got, want)
		}
	})
}

// BenchmarkPartition is the sharded contender's split of a tissue-S rebuild:
// 256 neurons (≈76k items) in ID order, as Sharded.Build passes them, into 4
// parts.
func BenchmarkPartition(b *testing.B) {
	items := tissueItems(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if parts := shard.Partition(items, 4); len(parts) != 4 {
			b.Fatalf("%d parts", len(parts))
		}
	}
}
