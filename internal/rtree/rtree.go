// Package rtree implements an in-memory R-tree over axis-aligned boxes, the
// baseline index the paper's demo compares FLAT against and the building
// block several other components reuse:
//
//   - FLAT uses a small R-tree (STR bulk-loaded, as in the FLAT paper) to
//     find the seed element of its crawl;
//   - TOUCH builds its data-oriented partitioning by STR-packing dataset A;
//   - the S3 join baseline synchronously traverses two R-trees.
//
// The tree supports STR bulk loading (Leutenegger et al., ICDE'97), dynamic
// insertion with quadratic node splitting (Guttman, SIGMOD'84), deletion with
// subtree reinsertion, range queries, seed queries (first match), and
// best-first k-nearest-neighbor search. Range queries report the per-level
// node-access counts that the demo's statistics panel displays: under MBR
// overlap an R-tree touches several nodes per level, which is exactly the
// effect FLAT's density-independent execution avoids.
package rtree

import (
	"fmt"

	"neurospatial/internal/geom"
)

// Item is one indexed entry: a bounding box and the caller's element ID.
type Item struct {
	Box geom.AABB
	ID  int32
}

// node is an R-tree node. Leaves (level 0) carry items; internal nodes carry
// children. MBRs are maintained exactly on every mutation.
type node struct {
	box      geom.AABB
	level    int
	items    []Item  // level == 0
	children []*node // level > 0
}

func (n *node) isLeaf() bool { return n.level == 0 }

func (n *node) recomputeBox() {
	b := geom.EmptyAABB()
	if n.isLeaf() {
		for i := range n.items {
			b = b.Union(n.items[i].Box)
		}
	} else {
		for _, c := range n.children {
			b = b.Union(c.box)
		}
	}
	n.box = b
}

func (n *node) fanoutUsed() int {
	if n.isLeaf() {
		return len(n.items)
	}
	return len(n.children)
}

// Tree is an R-tree with a fixed maximum fanout. The zero value is not
// usable; construct trees with New or STR.
type Tree struct {
	root    *node
	fanout  int
	minFill int
	size    int
}

// DefaultFanout is the node capacity used when callers pass fanout <= 0. The
// value 16 models a disk page of sixteen 3-D MBR entries, small enough that
// tree height effects are visible at experiment scale.
const DefaultFanout = 16

// New returns an empty tree with the given maximum node fanout (minimum 4;
// values <= 0 select DefaultFanout).
func New(fanout int) (*Tree, error) {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 4 {
		return nil, fmt.Errorf("rtree: fanout %d too small (minimum 4)", fanout)
	}
	return &Tree{
		root:    &node{level: 0, box: geom.EmptyAABB()},
		fanout:  fanout,
		minFill: fanout * 2 / 5, // 40%, the classic m = 0.4M
	}, nil
}

// Size returns the number of items in the tree.
func (t *Tree) Size() int { return t.size }

// Fanout returns the maximum node fanout.
func (t *Tree) Fanout() int { return t.fanout }

// Height returns the number of levels (0 for an empty tree, 1 for a
// root-leaf).
func (t *Tree) Height() int {
	if t.size == 0 {
		return 0
	}
	return t.root.level + 1
}

// Bounds returns the MBR of the whole tree (empty when the tree is empty).
func (t *Tree) Bounds() geom.AABB { return t.root.box }

// STR bulk-loads a tree from items using Sort-Tile-Recursive packing: sort by
// X center, slice into vertical slabs, sort each slab by Y, tile into runs,
// sort runs by Z and pack consecutive items into leaves. The resulting leaves
// are near-full and spatially compact, which is why both FLAT and TOUCH use
// STR for their partitioning phases. Equal centers order by ID, so the tree is
// a function of the item set, not of the order items arrive in. Items with a
// NaN center are outside that contract: where they land is unspecified.
func STR(items []Item, fanout int) (*Tree, error) {
	t, err := New(fanout)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return t, nil
	}
	tiles := strPack(items, t.fanout)
	leaves := make([]*node, len(tiles))
	for i, tile := range tiles {
		leaves[i] = &node{level: 0, items: tile}
		leaves[i].recomputeBox()
	}
	t.size = len(items)
	t.root = buildUp(leaves, t.fanout)
	return t, nil
}

// buildUp packs nodes level by level until a single root remains. Nodes are
// packed in the order produced by STR, which preserves spatial locality.
func buildUp(nodes []*node, fanout int) *node {
	for len(nodes) > 1 {
		var parents []*node
		for i := 0; i < len(nodes); i += fanout {
			e := minInt(i+fanout, len(nodes))
			p := &node{level: nodes[i].level + 1, children: append([]*node(nil), nodes[i:e]...)}
			p.recomputeBox()
			parents = append(parents, p)
		}
		nodes = parents
	}
	return nodes[0]
}

// Insert adds one item using Guttman's choose-leaf descent (least volume
// enlargement, ties by smaller volume) and quadratic splitting on overflow.
func (t *Tree) Insert(it Item) {
	t.size++
	split := t.insertAt(t.root, it, 0)
	if split != nil {
		// Root split: grow the tree by one level.
		newRoot := &node{level: t.root.level + 1, children: []*node{t.root, split}}
		newRoot.recomputeBox()
		t.root = newRoot
	}
}

// insertAt inserts it into the subtree at n, targeting the given level (0 for
// items; >0 is used by condense-tree reinsertion of orphan subtrees). It
// returns a new sibling when n split.
func (t *Tree) insertAt(n *node, it Item, level int) *node {
	n.box = n.box.Union(it.Box)
	if n.level == level {
		n.items = append(n.items, it)
		if len(n.items) > t.fanout {
			return t.splitLeaf(n)
		}
		return nil
	}
	child := chooseSubtree(n, it.Box)
	if split := t.insertAt(child, it, level); split != nil {
		n.children = append(n.children, split)
		if len(n.children) > t.fanout {
			return t.splitInternal(n)
		}
	}
	return nil
}

// insertSubtree reattaches an orphan subtree at the height where it fits.
func (t *Tree) insertSubtree(n *node, sub *node) *node {
	n.box = n.box.Union(sub.box)
	if n.level == sub.level+1 {
		n.children = append(n.children, sub)
		if len(n.children) > t.fanout {
			return t.splitInternal(n)
		}
		return nil
	}
	child := chooseSubtree(n, sub.box)
	if split := t.insertSubtree(child, sub); split != nil {
		n.children = append(n.children, split)
		if len(n.children) > t.fanout {
			return t.splitInternal(n)
		}
	}
	return nil
}

// chooseSubtree picks the child needing the least volume enlargement.
func chooseSubtree(n *node, b geom.AABB) *node {
	best := n.children[0]
	bestEnl := best.box.Enlargement(b)
	bestVol := best.box.Volume()
	for _, c := range n.children[1:] {
		enl := c.box.Enlargement(b)
		vol := c.box.Volume()
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = c, enl, vol
		}
	}
	return best
}

// splitLeaf splits an overfull leaf with the quadratic method and returns the
// new sibling.
func (t *Tree) splitLeaf(n *node) *node {
	boxes := make([]geom.AABB, len(n.items))
	for i := range n.items {
		boxes[i] = n.items[i].Box
	}
	groupA, groupB := quadraticSplit(boxes, t.minFill)
	itemsA := make([]Item, 0, len(groupA))
	itemsB := make([]Item, 0, len(groupB))
	for _, i := range groupA {
		itemsA = append(itemsA, n.items[i])
	}
	for _, i := range groupB {
		itemsB = append(itemsB, n.items[i])
	}
	sib := &node{level: 0, items: itemsB}
	n.items = itemsA
	n.recomputeBox()
	sib.recomputeBox()
	return sib
}

// splitInternal splits an overfull internal node.
func (t *Tree) splitInternal(n *node) *node {
	boxes := make([]geom.AABB, len(n.children))
	for i := range n.children {
		boxes[i] = n.children[i].box
	}
	groupA, groupB := quadraticSplit(boxes, t.minFill)
	chA := make([]*node, 0, len(groupA))
	chB := make([]*node, 0, len(groupB))
	for _, i := range groupA {
		chA = append(chA, n.children[i])
	}
	for _, i := range groupB {
		chB = append(chB, n.children[i])
	}
	sib := &node{level: n.level, children: chB}
	n.children = chA
	n.recomputeBox()
	sib.recomputeBox()
	return sib
}

// quadraticSplit partitions the indices of boxes into two groups using
// Guttman's quadratic heuristic: seed with the pair wasting the most volume,
// then greedily assign the entry with the strongest preference, respecting
// the minimum fill.
func quadraticSplit(boxes []geom.AABB, minFill int) (a, b []int) {
	// Pick seeds: the pair whose union wastes the most volume.
	seedA, seedB := 0, 1
	worst := -1.0
	for i := 0; i < len(boxes); i++ {
		for j := i + 1; j < len(boxes); j++ {
			waste := boxes[i].Union(boxes[j]).Volume() - boxes[i].Volume() - boxes[j].Volume()
			if waste > worst {
				worst = waste
				seedA, seedB = i, j
			}
		}
	}
	a = []int{seedA}
	b = []int{seedB}
	boxA, boxB := boxes[seedA], boxes[seedB]
	rest := make([]int, 0, len(boxes)-2)
	for i := range boxes {
		if i != seedA && i != seedB {
			rest = append(rest, i)
		}
	}
	for len(rest) > 0 {
		// Force-assign when one group must take everything left to reach
		// the minimum fill.
		if len(a)+len(rest) == minFill {
			for _, i := range rest {
				a = append(a, i)
			}
			break
		}
		if len(b)+len(rest) == minFill {
			for _, i := range rest {
				b = append(b, i)
			}
			break
		}
		// Pick the entry with the largest |d(A) - d(B)| preference.
		bestIdx, bestDiff := 0, -1.0
		for k, i := range rest {
			dA := boxA.Enlargement(boxes[i])
			dB := boxB.Enlargement(boxes[i])
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff = diff
				bestIdx = k
			}
		}
		i := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		dA := boxA.Enlargement(boxes[i])
		dB := boxB.Enlargement(boxes[i])
		if dA < dB || (dA == dB && len(a) < len(b)) {
			a = append(a, i)
			boxA = boxA.Union(boxes[i])
		} else {
			b = append(b, i)
			boxB = boxB.Union(boxes[i])
		}
	}
	return a, b
}

// Delete removes the item with the given box and ID. It returns false when no
// such item exists. Underfull nodes are dissolved and their entries
// reinserted (Guttman's condense-tree).
func (t *Tree) Delete(it Item) bool {
	leaf, path := t.findLeaf(t.root, it, nil)
	if leaf == nil {
		return false
	}
	for i := range leaf.items {
		if leaf.items[i].ID == it.ID && leaf.items[i].Box == it.Box {
			leaf.items = append(leaf.items[:i], leaf.items[i+1:]...)
			break
		}
	}
	t.size--
	t.condense(leaf, path)
	// Shrink the root while it has a single child.
	for !t.root.isLeaf() && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if t.size == 0 {
		t.root = &node{level: 0, box: geom.EmptyAABB()}
	}
	return true
}

// findLeaf locates the leaf containing it, returning the leaf and the root
// path leading to it (excluding the leaf).
func (t *Tree) findLeaf(n *node, it Item, path []*node) (*node, []*node) {
	if n.isLeaf() {
		for i := range n.items {
			if n.items[i].ID == it.ID && n.items[i].Box == it.Box {
				return n, path
			}
		}
		return nil, nil
	}
	for _, c := range n.children {
		if c.box.ContainsBox(it.Box) {
			if leaf, p := t.findLeaf(c, it, append(path, n)); leaf != nil {
				return leaf, p
			}
		}
	}
	return nil, nil
}

// condense walks the path bottom-up, removing underfull nodes and queueing
// their contents for reinsertion, then reinserts.
func (t *Tree) condense(leaf *node, path []*node) {
	var orphanItems []Item
	var orphanNodes []*node

	n := leaf
	for i := len(path) - 1; i >= 0; i-- {
		parent := path[i]
		if n.fanoutUsed() < t.minFill {
			// Unlink n from parent and queue its contents.
			for k, c := range parent.children {
				if c == n {
					parent.children = append(parent.children[:k], parent.children[k+1:]...)
					break
				}
			}
			if n.isLeaf() {
				orphanItems = append(orphanItems, n.items...)
			} else {
				orphanNodes = append(orphanNodes, n.children...)
			}
		} else {
			n.recomputeBox()
		}
		n = parent
	}
	t.root.recomputeBox()

	for _, sub := range orphanNodes {
		if t.root.level <= sub.level {
			// The tree shrank below the subtree's height; splice it in by
			// growing a new root.
			newRoot := &node{level: sub.level + 1, children: []*node{t.root, sub}}
			if t.root.level < sub.level {
				// Rare: wrap the old root until heights match.
				for t.root.level < sub.level {
					wrap := &node{level: t.root.level + 1, children: []*node{t.root}}
					wrap.recomputeBox()
					t.root = wrap
				}
				newRoot = &node{level: sub.level + 1, children: []*node{t.root, sub}}
			}
			newRoot.recomputeBox()
			t.root = newRoot
			continue
		}
		if split := t.insertSubtree(t.root, sub); split != nil {
			newRoot := &node{level: t.root.level + 1, children: []*node{t.root, split}}
			newRoot.recomputeBox()
			t.root = newRoot
		}
	}
	for _, it := range orphanItems {
		t.size-- // Insert will re-increment
		t.Insert(it)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func cbrtCeil(n int) int {
	k := 1
	for k*k*k < n {
		k++
	}
	return k
}
