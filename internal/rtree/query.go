package rtree

import (
	"fmt"

	"neurospatial/internal/geom"
)

// MaxLevels bounds the per-level node-access breakdown. An STR tree of
// height 32 holds at least 2^32 items even at fanout 2, far past anything the
// engine indexes; deeper accesses (unreachable in practice) fold into the
// top bucket rather than growing the record.
const MaxLevels = 32

// QueryStats describes the work one query performed. The demo's statistics
// panel (Figure 3 of the paper) shows exactly these numbers for the R-tree:
// node accesses broken down by level, which exposes how MBR overlap forces an
// R-tree to read several nodes per level in dense regions.
type QueryStats struct {
	// LevelNodes[l] counts node accesses at level l (0 = leaves); entries at
	// Levels and beyond are zero. An inline array rather than a slice, so a
	// stats record never allocates.
	LevelNodes [MaxLevels]int64
	// Levels is the number of meaningful LevelNodes entries — the height of
	// the deepest access recorded.
	Levels int
	// EntriesTested counts box comparisons against leaf entries.
	EntriesTested int64
	// Results counts items reported.
	Results int64
}

// NodesPerLevel renders the per-level breakdown (leaves first) as a freshly
// allocated slice, nil when no nodes were accessed — the display form. Hot
// paths read LevelNodes[:Levels] in place instead.
func (s QueryStats) NodesPerLevel() []int64 {
	if s.Levels == 0 {
		return nil
	}
	out := make([]int64, s.Levels)
	copy(out, s.LevelNodes[:s.Levels])
	return out
}

// NodeAccesses returns the total node accesses across all levels. Under the
// one-node-per-page layout this is the query's page-read count.
func (s QueryStats) NodeAccesses() int64 {
	var n int64
	for _, c := range s.LevelNodes[:s.Levels] {
		n += c
	}
	return n
}

func (s *QueryStats) visit(level int) {
	if level >= MaxLevels {
		level = MaxLevels - 1
	}
	s.LevelNodes[level]++
	if level+1 > s.Levels {
		s.Levels = level + 1
	}
}

// Query reports every item whose box intersects q to visit, in depth-first
// order, and returns the access statistics. It walks the pointer tree, and
// stays as the reference Dir.Query is tested against; readers query a Dir.
func (t *Tree) Query(q geom.AABB, visit func(Item)) QueryStats {
	var stats QueryStats
	if t.size == 0 {
		return stats
	}
	t.query(t.root, q, visit, &stats)
	return stats
}

func (t *Tree) query(n *node, q geom.AABB, visit func(Item), stats *QueryStats) {
	stats.visit(n.level)
	if n.isLeaf() {
		for i := range n.items {
			stats.EntriesTested++
			if n.items[i].Box.Intersects(q) {
				stats.Results++
				visit(n.items[i])
			}
		}
		return
	}
	for _, c := range n.children {
		if c.box.Intersects(q) {
			t.query(c, q, visit, stats)
		}
	}
}

// NodeView is a read-only handle on a tree node, exposed so the S3
// synchronized traversal and the test oracles can walk the pointer tree
// without mutating it.
type NodeView struct{ n *node }

// Root returns a view of the root node; ok is false for an empty tree.
func (t *Tree) Root() (NodeView, bool) {
	if t.size == 0 {
		return NodeView{}, false
	}
	return NodeView{t.root}, true
}

// Box returns the node's MBR.
func (v NodeView) Box() geom.AABB { return v.n.box }

// Level returns the node's level (0 = leaf).
func (v NodeView) Level() int { return v.n.level }

// IsLeaf reports whether the node is a leaf.
func (v NodeView) IsLeaf() bool { return v.n.isLeaf() }

// NumChildren returns the child count of an internal node (0 for leaves).
func (v NodeView) NumChildren() int { return len(v.n.children) }

// Child returns the i-th child of an internal node.
func (v NodeView) Child(i int) NodeView { return NodeView{v.n.children[i]} }

// Items returns the leaf's items. The slice is shared and must not be
// modified.
func (v NodeView) Items() []Item { return v.n.items }

// WalkLeaves calls fn for every leaf in left-to-right (pre-)order. For
// STR-built trees this order follows the packing order and is spatially
// coherent; FromLeafRuns rebuilds a tree from it.
func (t *Tree) WalkLeaves(fn func(box geom.AABB, items []Item)) {
	if t.size == 0 {
		return
	}
	walkLeaves(t.root, fn)
}

func walkLeaves(n *node, fn func(geom.AABB, []Item)) {
	if n.isLeaf() {
		fn(n.box, n.items)
		return
	}
	for _, c := range n.children {
		walkLeaves(c, fn)
	}
}

// PackSTR partitions items into STR tiles of at most fanout entries and
// returns the tiles in packing order. FLAT uses it to lay elements out on
// disk pages; TOUCH uses it to data-orient its partitions. The input slice is
// not modified, and its order does not matter (see STR; NaN centers excepted).
func PackSTR(items []Item, fanout int) [][]Item {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if len(items) == 0 {
		return nil
	}
	return strPack(items, fanout)
}

// CheckInvariants verifies structural invariants (MBR containment, level
// monotonicity, fill bounds) and returns the number of items found. Tests
// call it after mutation sequences.
func (t *Tree) CheckInvariants() (int, error) {
	if t.size == 0 {
		return 0, nil
	}
	return checkNode(t.root, t.fanout, true)
}

func checkNode(n *node, fanout int, isRoot bool) (int, error) {
	if n.isLeaf() {
		if len(n.items) > fanout {
			return 0, errOverfull(n.level, len(n.items), fanout)
		}
		for i := range n.items {
			if !n.box.ContainsBox(n.items[i].Box) {
				return 0, errEscape(n.level)
			}
		}
		return len(n.items), nil
	}
	if len(n.children) > fanout {
		return 0, errOverfull(n.level, len(n.children), fanout)
	}
	if !isRoot && len(n.children) == 0 {
		return 0, errEmptyInternal(n.level)
	}
	total := 0
	for _, c := range n.children {
		if c.level != n.level-1 {
			return 0, errLevel(n.level, c.level)
		}
		if !n.box.ContainsBox(c.box) {
			return 0, errEscape(n.level)
		}
		k, err := checkNode(c, fanout, false)
		if err != nil {
			return 0, err
		}
		total += k
	}
	return total, nil
}

func errOverfull(level, n, fanout int) error {
	return fmt.Errorf("rtree: overfull node at level %d: %d entries, fanout %d", level, n, fanout)
}

func errEscape(level int) error {
	return fmt.Errorf("rtree: an entry of a level-%d node escapes its MBR", level)
}

func errLevel(p, c int) error {
	return fmt.Errorf("rtree: level mismatch: a level-%d node has a level-%d child", p, c)
}

func errEmptyInternal(level int) error {
	return fmt.Errorf("rtree: empty internal node at level %d", level)
}
