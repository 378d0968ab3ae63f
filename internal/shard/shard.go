// Package shard partitions an item set into K spatial shards — the data
// layout under engine.Sharded, the scatter-gather layer that is the
// repository's step toward partitioned (multi-node) index serving.
//
// The split is STR-style longest-axis recursion over item *centers*: the
// set is recursively cut at a rank boundary along the longest axis of the
// current subset's center bounds, with the two sides sized proportionally to
// the shard counts they must still produce. The result is K near-equal-count,
// spatially compact, pairwise-disjoint item subsets whose box MBRs overlap
// only as much as the items themselves do — exactly the property a
// scatter-gather router wants, because a query then touches few shards.
//
// Each cut is rtree.SelectKeys, the quickselect STR's slab and run cuts use:
// a side depends on which items fall on it, not on their order. Partitioning
// is fully deterministic: ties on the split axis are broken by item ID, so the
// same items and K always produce the same shards.
package shard

import (
	"cmp"
	"slices"

	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// Part is one spatial shard of a partitioned item set.
type Part struct {
	// Items holds the shard's items with their original (global) IDs, in
	// ascending ID order.
	Items []rtree.Item
	// Bounds is the MBR of the shard's item boxes (not centers): a query
	// intersecting any item of the shard intersects Bounds, so routers can
	// prune whole shards against it.
	Bounds geom.AABB
}

// Partition splits items into at most k spatial parts (fewer only when there
// are fewer items than shards — every returned part is non-empty). Item
// counts per part differ by at most one. The input slice is not modified.
// Items with a NaN center are outside the contract: which part they land in
// is unspecified.
func Partition(items []rtree.Item, k int) []Part {
	if len(items) == 0 {
		return nil
	}
	k = max(1, min(k, len(items)))
	// The recursion cuts 16-byte center keys, not the items. Each key then
	// labels its item with its part, and one pass in input order distributes
	// the items into one array the parts slice: a part is ID-ordered whenever
	// the input is (Sharded.Build's is), and is sorted by ID only otherwise.
	cut := make([][]rtree.CenterKey, 0, k)
	split(rtree.CenterKeys(items), items, k, &cut)
	label := make([]int32, len(items))
	next := make([]int, len(cut)+1) // next[p]: where part p's next item goes
	for p, part := range cut {
		for _, key := range part {
			label[key.Index] = int32(p)
		}
		next[p+1] = next[p] + len(part)
	}
	gathered := make([]rtree.Item, len(items))
	for i, it := range items {
		p := label[i]
		gathered[next[p]] = it
		next[p]++
	}
	byID := func(a, b rtree.Item) int { return cmp.Compare(a.ID, b.ID) }
	parts := make([]Part, len(cut))
	lo := 0
	for i := range parts {
		hi := next[i] // the distribution advanced next[i] to part i's end
		parts[i].Items = gathered[lo:hi:hi]
		lo = hi
		if !slices.IsSortedFunc(parts[i].Items, byID) {
			slices.SortFunc(parts[i].Items, byID)
		}
		b := geom.EmptyAABB()
		for _, it := range parts[i].Items {
			b = b.Union(it.Box)
		}
		parts[i].Bounds = b
	}
	return parts
}

// split recursively cuts keys into k parts, appending them to out.
func split(keys []rtree.CenterKey, items []rtree.Item, k int, out *[][]rtree.CenterKey) {
	if k <= 1 || len(keys) <= 1 {
		*out = append(*out, keys)
		return
	}
	rtree.FillAxis(keys, items, longestCenterAxis(keys, items))
	kl := k / 2
	// Proportional cut: the left side carries kl of the k shards, so it gets
	// the matching share of the items (rounded), clamped so both sides stay
	// large enough to fill their shard counts.
	cut := min(max((len(keys)*kl+k/2)/k, kl), len(keys)-(k-kl))
	rtree.SelectKeys(keys, cut)
	split(keys[:cut], items, kl, out)
	split(keys[cut:], items, k-kl, out)
}

// longestCenterAxis returns the axis (0=X, 1=Y, 2=Z) with the widest spread
// of the keys' item centers.
func longestCenterAxis(keys []rtree.CenterKey, items []rtree.Item) int {
	b := geom.EmptyAABB()
	for _, k := range keys {
		b = b.ExtendPoint(items[k.Index].Box.Center())
	}
	s := b.Size()
	axis := 0
	if s.Y > s.Axis(axis) {
		axis = 1
	}
	if s.Z > s.Axis(axis) {
		axis = 2
	}
	return axis
}
