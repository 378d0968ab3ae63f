package rtree

import "neurospatial/internal/geom"

// QueryStats describes the work one query performed. The demo's statistics
// panel (Figure 3 of the paper) shows exactly these numbers for the R-tree:
// node accesses broken down by level, which exposes how MBR overlap forces an
// R-tree to read several nodes per level in dense regions.
// MaxLevels bounds the per-level node-access breakdown. An STR tree of
// height 32 holds at least 2^32 items even at fanout 2, far past anything the
// engine indexes; deeper accesses (unreachable in practice) fold into the
// top bucket rather than growing the record.
const MaxLevels = 32

type QueryStats struct {
	// LevelNodes[l] counts node accesses at level l (0 = leaves); entries at
	// Levels and beyond are zero. An inline array rather than a slice so a
	// stats record never allocates — the caller-retained per-level slice was
	// the rtree Do path's only remaining per-query heap allocation.
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

// Query reports every item whose box intersects q to visit, in unspecified
// order, and returns the access statistics.
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

// Count returns the number of items intersecting q without materializing
// them.
func (t *Tree) Count(q geom.AABB) int {
	n := 0
	t.Query(q, func(Item) { n++ })
	return n
}

// SeedInRange returns one arbitrary item whose box intersects q, preferring
// items near the query center. It is the first phase of FLAT's execution
// strategy: finding *any* element in the range needs only one root-to-leaf
// descent in the common case (§2.1 of the paper: "typically only depends on
// the height of the R-Tree"), after which FLAT's crawl takes over. The
// returned stats record the nodes the descent touched.
func (t *Tree) SeedInRange(q geom.AABB) (Item, QueryStats, bool) {
	var stats QueryStats
	if t.size == 0 {
		return Item{}, stats, false
	}
	c := q.Center()
	it, ok := t.seed(t.root, q, c, &stats)
	return it, stats, ok
}

func (t *Tree) seed(n *node, q geom.AABB, center geom.Vec, stats *QueryStats) (Item, bool) {
	stats.visit(n.level)
	if n.isLeaf() {
		bestIdx := -1
		bestD := 0.0
		for i := range n.items {
			stats.EntriesTested++
			if !n.items[i].Box.Intersects(q) {
				continue
			}
			d := n.items[i].Box.Dist2Point(center)
			if bestIdx < 0 || d < bestD {
				bestIdx, bestD = i, d
			}
		}
		if bestIdx >= 0 {
			stats.Results++
			return n.items[bestIdx], true
		}
		return Item{}, false
	}
	// Visit intersecting children closest to the query center first: in a
	// dense region the first descent succeeds immediately.
	order := make([]int, 0, len(n.children))
	for i, c := range n.children {
		if c.box.Intersects(q) {
			order = append(order, i)
		}
	}
	for k := 1; k < len(order); k++ {
		for j := k; j > 0 && n.children[order[j]].box.Dist2Point(center) <
			n.children[order[j-1]].box.Dist2Point(center); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, i := range order {
		if it, ok := t.seed(n.children[i], q, center, stats); ok {
			return it, true
		}
	}
	return Item{}, false
}

// SeedInRangeCount is the allocation-free form of SeedInRange: identical
// traversal (so identical node-access and entries-tested counts and the
// identical returned item), but reporting plain counters instead of a
// QueryStats whose per-level slice would allocate. It is the seed call of
// FLAT's zero-alloc Do path.
func (t *Tree) SeedInRangeCount(q geom.AABB) (it Item, nodes, tested int64, ok bool) {
	if t.size == 0 {
		return Item{}, 0, 0, false
	}
	it, ok = t.seedCount(t.root, q, q.Center(), &nodes, &tested)
	return it, nodes, tested, ok
}

// seedCount mirrors seed's descent order without materializing the sorted
// child order: instead of building an order slice, it repeatedly selects the
// next intersecting child in ascending (Dist2Point(center), child index) —
// exactly the order seed's stable insertion sort produces — using a
// (lastD, lastI) cursor. O(fanout²) selection in the worst case, zero
// allocations always.
func (t *Tree) seedCount(n *node, q geom.AABB, center geom.Vec, nodes, tested *int64) (Item, bool) {
	*nodes++
	if n.isLeaf() {
		bestIdx := -1
		bestD := 0.0
		for i := range n.items {
			*tested++
			if !n.items[i].Box.Intersects(q) {
				continue
			}
			d := n.items[i].Box.Dist2Point(center)
			if bestIdx < 0 || d < bestD {
				bestIdx, bestD = i, d
			}
		}
		if bestIdx >= 0 {
			return n.items[bestIdx], true
		}
		return Item{}, false
	}
	lastD, lastI := -1.0, -1 // Dist2Point is >= 0, so (-1, -1) precedes all
	for {
		bestI, bestD := -1, 0.0
		for i := range n.children {
			c := n.children[i]
			if !c.box.Intersects(q) {
				continue
			}
			d := c.box.Dist2Point(center)
			if d < lastD || (d == lastD && i <= lastI) {
				continue // already descended into
			}
			if bestI < 0 || d < bestD || (d == bestD && i < bestI) {
				bestI, bestD = i, d
			}
		}
		if bestI < 0 {
			return Item{}, false
		}
		lastD, lastI = bestD, bestI
		if it, ok := t.seedCount(n.children[bestI], q, center, nodes, tested); ok {
			return it, true
		}
	}
}

// QueryCount is the allocation-free form of Query: the same traversal and
// visit order, reporting plain counters instead of a QueryStats whose
// per-level slice would allocate.
func (t *Tree) QueryCount(q geom.AABB, visit func(Item)) (nodes, tested, results int64) {
	if t.size == 0 {
		return 0, 0, 0
	}
	t.queryCount(t.root, q, visit, &nodes, &tested, &results)
	return nodes, tested, results
}

func (t *Tree) queryCount(n *node, q geom.AABB, visit func(Item), nodes, tested, results *int64) {
	*nodes++
	if n.isLeaf() {
		for i := range n.items {
			*tested++
			if n.items[i].Box.Intersects(q) {
				*results++
				visit(n.items[i])
			}
		}
		return
	}
	for _, c := range n.children {
		if c.box.Intersects(q) {
			t.queryCount(c, q, visit, nodes, tested, results)
		}
	}
}

// NodeView is a read-only handle on a tree node, exposed so other packages
// (the S3 synchronized traversal, TOUCH's hierarchy walk, the paged layout)
// can traverse the structure without mutating it.
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

// WalkLeaves calls fn for every leaf in left-to-right order. For STR-built
// trees this order follows the packing order and is spatially coherent.
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

type invariantError string

func (e invariantError) Error() string { return string(e) }

func errOverfull(level, n, fanout int) error {
	return invariantError("rtree: overfull node")
}
func errEscape(level int) error        { return invariantError("rtree: child escapes parent MBR") }
func errLevel(p, c int) error          { return invariantError("rtree: level mismatch") }
func errEmptyInternal(level int) error { return invariantError("rtree: empty internal node") }
