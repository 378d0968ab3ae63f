package rtree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"neurospatial/internal/circuit"
	"neurospatial/internal/geom"
)

// refPackSTR is the bulk load as it was before the key sort — sort.Slice over
// a copy of the items, one copy per tile — with the ID tie-break added. It is
// the oracle for "page layouts did not move": FLAT's pages, its seed tree, the
// R-tree contender, TOUCH and S3 are all cut from PackSTR / STR tiles, and
// durable page files written by earlier versions hold exactly these.
func refPackSTR(items []Item, fanout int) [][]Item {
	if len(items) == 0 {
		return nil
	}
	own := append([]Item(nil), items...)
	byAxis := func(s []Item, axis int) {
		sort.Slice(s, func(i, j int) bool {
			ci, cj := s[i].Box.Center().Axis(axis), s[j].Box.Center().Axis(axis)
			if ci != cj {
				return ci < cj
			}
			return s[i].ID < s[j].ID
		})
	}
	nLeaves := (len(own) + fanout - 1) / fanout
	s := cbrtCeil(nLeaves)
	sliceX, sliceY := s*s*fanout, s*fanout

	byAxis(own, 0)
	var tiles [][]Item
	for x := 0; x < len(own); x += sliceX {
		slab := own[x:minInt(x+sliceX, len(own))]
		byAxis(slab, 1)
		for y := 0; y < len(slab); y += sliceY {
			run := slab[y:minInt(y+sliceY, len(slab))]
			byAxis(run, 2)
			for z := 0; z < len(run); z += fanout {
				tiles = append(tiles, append([]Item(nil), run[z:minInt(z+fanout, len(run))]...))
			}
		}
	}
	return tiles
}

// tissueItems flattens a generated circuit to items, as the engine's callers do.
func tissueItems(t testing.TB, neurons int) []Item {
	t.Helper()
	p := circuit.DefaultParams()
	p.Neurons = neurons
	p.Layers = circuit.CorticalLayers()
	p.Seed = 1
	c, err := circuit.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, len(c.Elements))
	for i := range c.Elements {
		items[i] = Item{Box: c.Elements[i].Bounds(), ID: c.Elements[i].ID}
	}
	return items
}

// adversarialSets are the inputs on which an order without a tie-break is not
// a function of the item set: every center equal, every box duplicated, centers
// that differ only in the sign of zero, and a lattice where whole planes tie.
func adversarialSets() map[string][]Item {
	sets := make(map[string][]Item)

	same := make([]Item, 700)
	for i := range same {
		// Equal centers, different extents: the boxes differ, the keys do not.
		same[i] = Item{Box: geom.BoxAround(geom.V(5, 5, 5), 1+float64(i%7)), ID: int32(i)}
	}
	sets["equal-centers"] = same

	rng := rand.New(rand.NewSource(7))
	dup := randItems(rng, 300, 50)
	for i := 0; i < 300; i++ {
		dup = append(dup, Item{Box: dup[i].Box, ID: int32(300 + i)})
	}
	sets["duplicated-boxes"] = dup

	negZero := math.Copysign(0, -1)
	zeros := make([]Item, 600)
	for i := range zeros {
		c := geom.V(0, 0, float64(i%5))
		if i%2 == 1 {
			c = geom.V(negZero, negZero, float64(i%5))
		}
		// A zero-extent box keeps the sign of its center's zeros.
		zeros[i] = Item{Box: geom.AABB{Min: c, Max: c}, ID: int32(i)}
	}
	sets["signed-zeros"] = zeros

	lattice := make([]Item, 0, 9*9*9)
	for i := 0; i < 9*9*9; i++ {
		c := geom.V(float64(i%9), float64(i/9%9), float64(i/81))
		lattice = append(lattice, Item{Box: geom.BoxAround(c, 0.5), ID: int32(i)})
	}
	sets["lattice"] = lattice
	return sets
}

func shuffled(items []Item, seed int64) []Item {
	out := append([]Item(nil), items...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// strLeaves returns a bulk-loaded tree's leaves in packing order.
func strLeaves(t *testing.T, items []Item, fanout int) [][]Item {
	t.Helper()
	tr, err := STR(items, fanout)
	if err != nil {
		t.Fatal(err)
	}
	var leaves [][]Item
	tr.WalkLeaves(func(_ geom.AABB, its []Item) { leaves = append(leaves, its) })
	return leaves
}

func TestPackSTRMatchesReference(t *testing.T) {
	sets := adversarialSets()
	sets["tissue-64"] = tissueItems(t, 64)
	if !testing.Short() {
		sets["tissue-256"] = tissueItems(t, 256)
	}
	for name, items := range sets {
		for _, fanout := range []int{16, 64} {
			want := refPackSTR(items, fanout)
			if got := PackSTR(items, fanout); !reflect.DeepEqual(got, want) {
				t.Errorf("%s fanout %d: PackSTR tiles differ from the reference", name, fanout)
			}
			if got := strLeaves(t, items, fanout); !reflect.DeepEqual(got, want) {
				t.Errorf("%s fanout %d: STR leaves differ from the reference", name, fanout)
			}
		}
	}
}

func TestPackSTRInputOrderInvariant(t *testing.T) {
	sets := adversarialSets()
	sets["tissue-64"] = tissueItems(t, 64)
	for name, items := range sets {
		want := PackSTR(items, 16)
		for seed := int64(1); seed <= 4; seed++ {
			in := shuffled(items, seed)
			if got := PackSTR(in, 16); !reflect.DeepEqual(got, want) {
				t.Errorf("%s shuffle %d: PackSTR tiles depend on input order", name, seed)
			}
			if got := strLeaves(t, in, 16); !reflect.DeepEqual(got, want) {
				t.Errorf("%s shuffle %d: STR leaves depend on input order", name, seed)
			}
		}
	}
}

// TestPackSTRTilesDoNotAlias pins the capped slices: tiles share one array, so
// an append to one must not reach the next.
func TestPackSTRTilesDoNotAlias(t *testing.T) {
	items := randItems(rand.New(rand.NewSource(3)), 100, 20)
	tiles := PackSTR(items, 16)
	next := tiles[1][0]
	_ = append(tiles[0], Item{ID: -1})
	if tiles[1][0] != next {
		t.Fatal("append to one tile overwrote its neighbour")
	}
	tr, _ := STR(items, 16)
	for i := 0; i < 50; i++ {
		tr.Insert(Item{Box: geom.BoxAround(geom.V(1, 1, 1), 0.1), ID: int32(100 + i)})
	}
	if n, err := tr.CheckInvariants(); err != nil || n != 150 {
		t.Fatalf("after inserts into a bulk-loaded tree: %d items, %v", n, err)
	}
}

// compareSortKeys is SortKeys as the comparison sort it was before the radix
// sort: the oracle for "the radix sort gives the same permutation".
func compareSortKeys(keys []CenterKey) {
	slices.SortFunc(keys, func(a, b CenterKey) int {
		switch {
		case a.C < b.C:
			return -1
		case a.C > b.C:
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// sortKeysAgree sorts a copy of keys (whose Index fields must be their
// positions) with SortKeys and another with the comparator, and reports the
// first place they differ: the (C, ID) sequences must be equal under the
// comparator's equality, and every key must arrive intact, exactly once.
// With unique IDs that pins the whole permutation.
func sortKeysAgree(keys []CenterKey) error {
	got := append([]CenterKey(nil), keys...)
	want := append([]CenterKey(nil), keys...)
	SortKeys(got)
	compareSortKeys(want)
	seen := make([]bool, len(keys))
	for i, k := range got {
		if k.Index < 0 || int(k.Index) >= len(keys) || seen[k.Index] {
			return fmt.Errorf("position %d: index %d out of range or repeated", i, k.Index)
		}
		seen[k.Index] = true
		if in := keys[k.Index]; math.Float64bits(in.C) != math.Float64bits(k.C) || in.ID != k.ID {
			return fmt.Errorf("position %d: key %+v arrived as %+v", i, in, k)
		}
		if k.C != want[i].C || k.ID != want[i].ID {
			return fmt.Errorf("position %d of %d: (%v, %d), the comparator puts (%v, %d)", i, len(keys), k.C, k.ID, want[i].C, want[i].ID)
		}
	}
	return nil
}

// indexedKeys numbers cs as keys with the given IDs, Index = position.
func indexedKeys(cs []float64, ids []int32) []CenterKey {
	keys := make([]CenterKey, len(cs))
	for i := range keys {
		keys[i] = CenterKey{C: cs[i], ID: ids[i], Index: int32(i)}
	}
	return keys
}

func TestSortKeysMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// perm is a shuffled run of unique IDs, so that no two keys tie on (C, ID).
	perm := func(n int) []int32 {
		ids := make([]int32, n)
		for i, p := range rng.Perm(n) {
			ids[i] = int32(p)
		}
		return ids
	}
	pick := func(n int, from []float64) []float64 {
		cs := make([]float64, n)
		for i := range cs {
			cs[i] = from[rng.Intn(len(from))]
		}
		return cs
	}
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	sub := math.SmallestNonzeroFloat64
	sets := map[string][]CenterKey{
		"signed-zeros-and-infinities": indexedKeys(pick(500, []float64{0, negZero, inf, -inf, 1, -1, math.MaxFloat64, -math.MaxFloat64}), perm(500)),
		"subnormals-and-negatives":    indexedKeys(pick(500, []float64{sub, -sub, 2 * sub, -2 * sub, 0x1p-1022, -0x1p-1022, 0x1p-1023, -0x1p-1023, negZero, 0, -3.5, -1e300, -1e-300, 7}), perm(500)),
	}
	// Long runs of equal centers with shuffled IDs: the final ID pass does all
	// the work, over runs of hundreds.
	sets["equal-runs"] = indexedKeys(pick(3000, []float64{-2, 0, negZero, 5, 5.000000000000001}), perm(3000))
	// Every key equal: every digit is skipped.
	sets["all-equal"] = indexedKeys(pick(700, []float64{42}), perm(700))
	// Centers that differ only in their lowest mantissa byte, or only in their
	// top byte: one digit pass each.
	low, top := make([]float64, 600), make([]float64, 600)
	for i := range low {
		low[i] = math.Float64frombits(math.Float64bits(100) + uint64(rng.Intn(256)))
		top[i] = math.Float64frombits(uint64(rng.Intn(256)) << 56)
	}
	sets["low-byte-only"] = indexedKeys(low, perm(600))
	sets["top-byte-only"] = indexedKeys(top, perm(600))
	// Sizes around every power of two up to a full histogram, random centers
	// of both signs, a few of them repeated.
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000} {
		cs := make([]float64, n)
		for i := range cs {
			cs[i] = rng.NormFloat64() * 100
			if i > 0 && rng.Intn(8) == 0 {
				cs[i] = cs[rng.Intn(i)]
			}
		}
		sets[fmt.Sprintf("random-%d", n)] = indexedKeys(cs, perm(n))
	}
	items := tissueItems(t, 64)
	for axis := 0; axis < 3; axis++ {
		keys := CenterKeys(items)
		FillAxis(keys, items, axis)
		sets[fmt.Sprintf("tissue-64-axis-%d", axis)] = keys
	}
	for name, keys := range sets {
		if err := sortKeysAgree(keys); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzSortKeys feeds SortKeys arbitrary non-NaN centers, bit pattern by bit
// pattern, with arbitrary (also repeated) IDs: 12 bytes per key, 8 for the
// center and 4 for the ID.
func FuzzSortKeys(f *testing.F) {
	key := func(c float64, id int32) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(c))
		return binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	var seed []byte
	for i, c := range []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -1, 1, 0, -0.5} {
		seed = append(seed, key(c, int32(9-i))...)
	}
	f.Add(seed)
	f.Add(append(key(3, 1), key(3, 1)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys []CenterKey
		for ; len(data) >= 12; data = data[12:] {
			c := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if math.IsNaN(c) {
				continue // outside SortKeys' contract
			}
			keys = append(keys, CenterKey{C: c, ID: int32(binary.LittleEndian.Uint32(data[8:])), Index: int32(len(keys))})
		}
		if err := sortKeysAgree(keys); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkSortKeys times the three sizes a tissue-S PackSTR sorts (fanout
// 64): a Z run (≈700 keys), a Y slab (≈7.7k) and the whole set (≈76k), each a
// prefix of the tissue's X centers. Every iteration restores the unsorted keys
// first; the copy is a few percent of the sort.
func BenchmarkSortKeys(b *testing.B) {
	items := tissueItems(b, 256)
	all := CenterKeys(items)
	FillAxis(all, items, 0)
	for _, n := range []int{700, 7700, len(all)} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			keys := make([]CenterKey, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(keys, all[:n])
				SortKeys(keys)
			}
		})
	}
}
