package rtree

import (
	"cmp"
	"slices"
)

// CenterKey is what a bulk load sorts in place of an Item: the item's center
// coordinate on the axis being cut, its ID as the tie-break, and its position
// in the input. Sixteen bytes move per swap where an Item is fifty-six, the
// center is computed once per refill rather than twice per comparison, and the
// order is a pure function of the item set — equal centers (±0 included) fall
// back to the ID, never to input order.
type CenterKey struct {
	C     float64
	ID    int32
	Index int32
}

// CenterKeys returns one key per item, in input order, with C unset: FillAxis
// sets it before every sort.
func CenterKeys(items []Item) []CenterKey {
	keys := make([]CenterKey, len(items))
	for i := range items {
		keys[i].ID, keys[i].Index = items[i].ID, int32(i)
	}
	return keys
}

// FillAxis sets every key's C to its item's box center on axis (0=X, 1=Y,
// 2=Z).
func FillAxis(keys []CenterKey, items []Item, axis int) {
	for i := range keys {
		keys[i].C = items[keys[i].Index].Box.Center().Axis(axis)
	}
}

// SortKeys orders keys by (C, ID).
func SortKeys(keys []CenterKey) {
	slices.SortFunc(keys, func(a, b CenterKey) int {
		// Not cmp.Compare on C: its NaN tests cost the whole sort an eighth.
		switch {
		case a.C < b.C:
			return -1
		case a.C > b.C:
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// Gather appends the keys' items to dst in key order.
func Gather(dst []Item, keys []CenterKey, items []Item) []Item {
	for _, k := range keys {
		dst = append(dst, items[k.Index])
	}
	return dst
}

// strPack tiles items into runs of at most fanout entries, Sort-Tile-Recursive:
// order by X center, cut into slabs, order each slab by Y, cut into runs, order
// each run by Z, cut into tiles. The tiles are returned in packing order and
// slice one fresh array; each is capped at its own length, so an append to one
// (a later Insert into a bulk-loaded leaf) reallocates instead of overwriting
// its neighbour. items is not modified.
func strPack(items []Item, fanout int) [][]Item {
	nLeaves := (len(items) + fanout - 1) / fanout
	// S = number of slabs per axis ~ cube root of leaf count.
	s := cbrtCeil(nLeaves)
	sliceX := s * s * fanout // items per X slab
	sliceY := s * fanout     // items per Y run

	keys := CenterKeys(items)
	packed := make([]Item, 0, len(items))
	tiles := make([][]Item, 0, nLeaves)
	FillAxis(keys, items, 0)
	SortKeys(keys)
	for x := 0; x < len(keys); x += sliceX {
		slab := keys[x:minInt(x+sliceX, len(keys))]
		FillAxis(slab, items, 1)
		SortKeys(slab)
		for y := 0; y < len(slab); y += sliceY {
			run := slab[y:minInt(y+sliceY, len(slab))]
			FillAxis(run, items, 2)
			SortKeys(run)
			for z := 0; z < len(run); z += fanout {
				lo := len(packed)
				packed = Gather(packed, run[z:minInt(z+fanout, len(run))], items)
				tiles = append(tiles, packed[lo:len(packed):len(packed)])
			}
		}
	}
	return tiles
}
