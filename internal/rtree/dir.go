package rtree

import (
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// Dir is a built tree lowered into flat arrays: the form every reader walks.
// Lower writes it in one pre-order walk, so node i's subtree follows it and
// each node's children keep the tree's order. FLAT's seed is a Dir over its
// page MBRs, and the engine's R-tree contender lays Dir node i out on page i.
type Dir struct {
	// Nodes holds the nodes in pre-order; Nodes[0] is the root.
	Nodes []DirNode
	// Kids holds each internal node's children, as indexes into Nodes, one
	// run per node.
	Kids []int32
	// Items holds each leaf's entries, one run per leaf, leaves in pre-order
	// (the order WalkLeaves reports them in).
	Items []Item
}

// DirNode is one node of a Dir.
type DirNode struct {
	Box geom.AABB
	// Level is the node's level (0 = leaf).
	Level int32
	// Off and N locate the node's run: Kids[Off:Off+N] for an internal node,
	// Items[Off:Off+N] for a leaf.
	Off, N int32
}

// Leaf reports whether the node is a leaf.
func (n *DirNode) Leaf() bool { return n.Level == 0 }

// KidsOf returns the children of internal node n. The slice is shared and
// must not be modified.
func (d *Dir) KidsOf(n *DirNode) []int32 { return d.Kids[n.Off : n.Off+n.N] }

// ItemsOf returns the entries of leaf n. The slice is shared and must not be
// modified.
func (d *Dir) ItemsOf(n *DirNode) []Item { return d.Items[n.Off : n.Off+n.N] }

// Lower lowers t into a Dir. The Dir shares nothing with t, so t may go on
// changing. An empty tree lowers to a Dir with no nodes.
func Lower(t *Tree) Dir {
	if t.size == 0 {
		return Dir{}
	}
	nodes := countNodes(t.root)
	d := Dir{
		Nodes: make([]DirNode, 0, nodes),
		Kids:  make([]int32, 0, nodes-1), // every node but the root is a kid
		Items: make([]Item, 0, t.size),
	}
	d.lower(t.root)
	return d
}

func countNodes(n *node) int {
	c := 1
	for _, ch := range n.children {
		c += countNodes(ch)
	}
	return c
}

// lower appends the subtree under n in pre-order and returns its root's index.
// An internal node reserves its kid run before its children are appended, so
// the run is contiguous.
func (d *Dir) lower(n *node) int32 {
	i := int32(len(d.Nodes))
	d.Nodes = append(d.Nodes, DirNode{Box: n.box, Level: int32(n.level)})
	if n.isLeaf() {
		d.Nodes[i].Off, d.Nodes[i].N = int32(len(d.Items)), int32(len(n.items))
		d.Items = append(d.Items, n.items...)
		return i
	}
	off := len(d.Kids)
	d.Nodes[i].Off, d.Nodes[i].N = int32(off), int32(len(n.children))
	d.Kids = d.Kids[:off+len(n.children)] // within the capacity Lower counted
	for c, ch := range n.children {
		d.Kids[off+c] = d.lower(ch)
	}
	return i
}

// Bounds returns the MBR of the whole directory (empty when it is empty).
func (d *Dir) Bounds() geom.AABB {
	if len(d.Nodes) == 0 {
		return geom.EmptyAABB()
	}
	return d.Nodes[0].Box
}

// Height returns the number of levels (0 when empty, 1 for a root leaf).
func (d *Dir) Height() int {
	if len(d.Nodes) == 0 {
		return 0
	}
	return int(d.Nodes[0].Level) + 1
}

// Query reports every item whose box intersects q to visit, in depth-first
// order, and returns the access statistics. It allocates nothing itself.
func (d *Dir) Query(q geom.AABB, visit func(Item)) QueryStats {
	var stats QueryStats
	if len(d.Nodes) > 0 {
		d.query(0, q, visit, &stats)
	}
	return stats
}

func (d *Dir) query(ni int32, q geom.AABB, visit func(Item), stats *QueryStats) {
	n := &d.Nodes[ni]
	stats.visit(int(n.Level))
	if n.Leaf() {
		items := d.ItemsOf(n)
		for i := range items {
			stats.EntriesTested++
			if items[i].Box.Intersects(q) {
				stats.Results++
				visit(items[i])
			}
		}
		return
	}
	for _, k := range d.KidsOf(n) {
		if d.Nodes[k].Box.Intersects(q) {
			d.query(k, q, visit, stats)
		}
	}
}

// PagesInRanges appends to dst, for the ranges boxes, every item whose box
// meets at least one of them, its ID taken as a page (FLAT's seed indexes
// pages), with the mask of the ranges it meets. It walks the directory once
// per window of pager.RangeWindow ranges, windows in order, and reports an
// item once per window, in Query's depth-first order: the items carrying bit
// b of window w are exactly those Query(boxes[w*pager.RangeWindow+b])
// visits, in its order. It allocates only when dst is short.
func (d *Dir) PagesInRanges(dst []pager.RangePage, boxes []geom.AABB) []pager.RangePage {
	if len(d.Nodes) == 0 {
		return dst
	}
	for w, lo := int32(0), 0; lo < len(boxes); w, lo = w+1, lo+pager.RangeWindow {
		win := boxes[lo:min(lo+pager.RangeWindow, len(boxes))]
		all := pager.WindowMask(len(win))
		dst = d.inRanges(dst, 0, win, all, pager.Cover(win, all), w)
	}
	return dst
}

// inRanges is PagesInRanges' walk of the subtree under node ni for the ranges
// of win that mask names, all of which may meet it; cover is their Cover.
func (d *Dir) inRanges(dst []pager.RangePage, ni int32, win []geom.AABB, mask uint64, cover geom.AABB, w int32) []pager.RangePage {
	n := &d.Nodes[ni]
	if n.Leaf() {
		items := d.ItemsOf(n)
		for i := range items {
			if m := pager.Meets(&items[i].Box, win, mask, &cover); m != 0 {
				dst = append(dst, pager.RangePage{Page: pager.PageID(items[i].ID), Window: w, Mask: m})
			}
		}
		return dst
	}
	for _, k := range d.KidsOf(n) {
		if m := pager.Meets(&d.Nodes[k].Box, win, mask, &cover); m == mask {
			dst = d.inRanges(dst, k, win, m, cover, w)
		} else if m != 0 {
			dst = d.inRanges(dst, k, win, m, pager.Cover(win, m), w)
		}
	}
	return dst
}
