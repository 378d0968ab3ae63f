package rtree

import (
	"math"
	"math/rand"
	"reflect"
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
