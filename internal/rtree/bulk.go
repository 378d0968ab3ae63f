package rtree

import (
	"cmp"
	"math"
	"slices"
)

// CenterKey is what a bulk load sorts in place of an Item: the item's center
// coordinate on the axis being cut, its ID as the tie-break, and its position
// in the input. Sixteen bytes move per radix pass where an Item is fifty-six,
// the center is computed once per refill rather than once per pass, and the
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

// SortKeys orders keys by (C, ID). A NaN center is outside the contract: where
// it lands is unspecified.
//
// It is an LSD radix sort on radixImage(C), byte digits least significant
// first: one pass takes all eight histograms, a digit every key shares is
// skipped, and the keys move between keys and one scratch array allocated
// per call. The passes are stable, so equal centers come out in input order;
// one linear pass then sorts each such run by ID. The result is exactly the
// permutation a (C, ID) comparison sort gives.
func SortKeys(keys []CenterKey) {
	n := len(keys)
	if n < 2 {
		return
	}
	var count [8][256]int
	for i := range keys {
		b := radixImage(keys[i].C)
		for d := range count {
			count[d][byte(b>>(8*d))]++
		}
	}
	first := radixImage(keys[0].C)
	src, dst := keys, make([]CenterKey, n)
	for d := range count {
		shift := 8 * d
		c := &count[d]
		if c[byte(first>>shift)] == n {
			continue
		}
		sum := 0
		for i, m := range c {
			c[i], sum = sum, sum+m
		}
		for _, k := range src {
			b := byte(radixImage(k.C) >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keys[hi].C == keys[lo].C {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], func(a, b CenterKey) int { return cmp.Compare(a.ID, b.ID) })
		}
		lo = hi
	}
}

// radixImage maps c to a uint64 whose unsigned order is c's numeric order,
// −0 and +0 to the same value: a negative has every bit flipped, anything
// else its sign bit set.
func radixImage(c float64) uint64 {
	b := math.Float64bits(c)
	if b == 1<<63 { // −0
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// gather appends the keys' items to dst in key order.
func gather(dst []Item, keys []CenterKey, items []Item) []Item {
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
				packed = gather(packed, run[z:minInt(z+fanout, len(run))], items)
				tiles = append(tiles, packed[lo:len(packed):len(packed)])
			}
		}
	}
	return tiles
}
