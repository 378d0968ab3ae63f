package rtree

import "fmt"

// FromLeafRuns reconstructs a bulk-loaded tree from its recorded leaf
// packing: items holds every indexed item in leaf pre-order, and runLens
// gives the length of each consecutive leaf run. Packing the given runs with
// the same level-by-level build STR uses yields a tree identical to the one
// the runs were recorded from — the durable-snapshot path relies on this to
// recover an R-tree without re-sorting anything.
func FromLeafRuns(items []Item, runLens []int32, fanout int) (*Tree, error) {
	t, err := New(fanout)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		if len(runLens) != 0 {
			return nil, fmt.Errorf("rtree: %d leaf runs over zero items", len(runLens))
		}
		return t, nil
	}
	leaves := make([]*node, 0, len(runLens))
	off := 0
	for i, rl := range runLens {
		n := int(rl)
		if n <= 0 || n > t.fanout || off+n > len(items) {
			return nil, fmt.Errorf("rtree: leaf run %d has invalid length %d (fanout %d, %d items left)",
				i, n, t.fanout, len(items)-off)
		}
		leaf := &node{level: 0, items: append([]Item(nil), items[off:off+n]...)}
		leaf.recomputeBox()
		leaves = append(leaves, leaf)
		off += n
	}
	if off != len(items) {
		return nil, fmt.Errorf("rtree: leaf runs cover %d of %d items", off, len(items))
	}
	t.size = len(items)
	t.root = buildUp(leaves, t.fanout)
	return t, nil
}
