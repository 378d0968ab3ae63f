package rtree

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// CenterKey is what a bulk load sorts in place of an Item: the item's center
// coordinate on the axis being cut, its ID as the tie-break, and its position
// in the input. Sixteen bytes move per pass where an Item is fifty-six,
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
// 2=Z): the value Box.Center().Axis(axis) gives, from the one axis it needs.
func FillAxis(keys []CenterKey, items []Item, axis int) {
	for i := range keys {
		b := &items[keys[i].Index].Box
		lo, hi := b.Min.X, b.Max.X
		if axis == 1 {
			lo, hi = b.Min.Y, b.Max.Y
		} else if axis == 2 {
			lo, hi = b.Min.Z, b.Max.Z
		}
		keys[i].C = (lo + hi) * 0.5
	}
}

// SortKeys orders keys by (C, ID). A NaN center is outside the contract: where
// it lands is unspecified. A bulk load sorts only its Z runs with it: its slab
// and run cuts need the ranks, not the order, and SelectKeys finds those.
//
// It is an LSD radix sort on the top half of radixImage(C) — sign, exponent
// and the top 20 bits of the mantissa, which nearly always tell two centers
// of a run apart — byte digits least significant first: one pass takes all
// four histograms, a digit every key shares is skipped, and the keys move
// between keys and one scratch array. One linear pass then sorts each run of
// equal top halves by (C, ID). The result is exactly the permutation a
// (C, ID) comparison sort gives.
func SortKeys(keys []CenterKey) { sortKeys(keys, make([]CenterKey, len(keys))) }

// sortKeys is SortKeys with its scratch array passed in: at least len(keys).
func sortKeys(keys, scratch []CenterKey) {
	n := len(keys)
	if n < 2 {
		return
	}
	var count [4][256]int
	for i := range keys {
		b := radixImage(keys[i].C) >> 32
		for d := range count {
			count[d][byte(b>>(8*d))]++
		}
	}
	first := radixImage(keys[0].C) >> 32
	src, dst := keys, scratch[:n]
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
			b := byte(radixImage(k.C) >> (32 + shift))
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
	for lo := 0; lo < n; {
		hi, top := lo+1, radixImage(keys[lo].C)>>32
		for hi < n && radixImage(keys[hi].C)>>32 == top {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], func(a, b CenterKey) int {
				if c := cmp.Compare(a.C, b.C); c != 0 {
					return c
				}
				return cmp.Compare(a.ID, b.ID)
			})
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

// SelectKeys reorders keys so that keys[:k] are the k least in SortKeys'
// order and keys[k:] the rest, each side in no particular order: the cut a
// full sort would make, which is all a block cut from a sorted run depends on.
// It is quickselect, expected linear time; a range still holding the cut after
// 2·log₂ n partitions is radix-sorted instead, which bounds the worst case.
func SelectKeys(keys []CenterKey, k int) {
	lo, hi := 0, len(keys)
	for budget := 2 * bits.Len(uint(len(keys))); lo < k && k < hi; budget-- {
		if budget == 0 {
			SortKeys(keys[lo:hi])
			return
		}
		if m := lo + partitionKeys(keys[lo:hi]); k <= m {
			hi = m
		} else {
			lo = m + 1
		}
	}
}

// keyLess is SortKeys' order: center, then ID; −0 and +0 are equal.
func keyLess(a, b CenterKey) bool { return a.C < b.C || a.C == b.C && a.ID < b.ID }

// partitionKeys takes the median of s's first, middle and last keys as the
// pivot, moves every key less than it before it and every other key after
// it, and returns the pivot's index.
func partitionKeys(s []CenterKey) int {
	last := len(s) - 1
	mid := last / 2
	if keyLess(s[mid], s[0]) {
		s[0], s[mid] = s[mid], s[0]
	}
	if keyLess(s[last], s[mid]) {
		s[mid], s[last] = s[last], s[mid]
		if keyLess(s[mid], s[0]) {
			s[0], s[mid] = s[mid], s[0]
		}
	}
	s[mid], s[last] = s[last], s[mid]
	p, i := s[last], 0
	for j := 0; j < last; j++ {
		if keyLess(s[j], p) {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[last] = s[last], s[i]
	return i
}

// cutKeys puts the keys of ranks [i·size, (i+1)·size) in SortKeys' order into
// keys[i·size:(i+1)·size], for every i, each block in no particular order:
// it selects the middle block boundary and cuts each side the same way.
func cutKeys(keys []CenterKey, size int) {
	for len(keys) > size {
		m := (len(keys) + size - 1) / size / 2 * size
		SelectKeys(keys, m)
		cutKeys(keys[:m], size)
		keys = keys[m:]
	}
}

// strPack tiles items into runs of at most fanout entries, Sort-Tile-Recursive:
// cut the X order into slabs, each slab's Y order into runs, and sort each run
// by Z into tiles. A slab and a run hold the keys of their ranks, which is all
// a tile depends on, so they are selected (cutKeys), not sorted; only a run is
// sorted. The tiles are returned in packing order and slice one fresh array;
// each is capped at its own length, so an append to one (a later Insert into a
// bulk-loaded leaf) reallocates instead of overwriting its neighbour. items is
// not modified.
func strPack(items []Item, fanout int) [][]Item {
	nLeaves := (len(items) + fanout - 1) / fanout
	// S = number of slabs per axis ~ cube root of leaf count.
	s := cbrtCeil(nLeaves)
	sliceX := s * s * fanout // items per X slab
	sliceY := s * fanout     // items per Y run

	keys := CenterKeys(items)
	packed := make([]Item, 0, len(items))
	tiles := make([][]Item, 0, nLeaves)
	scratch := make([]CenterKey, min(sliceY, len(keys)))
	FillAxis(keys, items, 0)
	cutKeys(keys, sliceX)
	for x := 0; x < len(keys); x += sliceX {
		slab := keys[x:min(x+sliceX, len(keys))]
		FillAxis(slab, items, 1)
		cutKeys(slab, sliceY)
		for y := 0; y < len(slab); y += sliceY {
			run := slab[y:min(y+sliceY, len(slab))]
			FillAxis(run, items, 2)
			sortKeys(run, scratch)
			for z := 0; z < len(run); z += fanout {
				lo := len(packed)
				for _, k := range run[z:min(z+fanout, len(run))] {
					packed = append(packed, items[k.Index])
				}
				tiles = append(tiles, packed[lo:len(packed):len(packed)])
			}
		}
	}
	return tiles
}
