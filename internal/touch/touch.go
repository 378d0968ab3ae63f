// Package touch implements TOUCH (Nobari et al., SIGMOD'13), the in-memory
// spatial distance join §4 of the demonstrated paper presents for synapse
// placement.
//
// TOUCH is designed "radically different than known approaches in that it
// avoids space-oriented partitioning and thus also avoids element
// replication" (§4.1). It proceeds in two phases:
//
//  1. Data-oriented partitioning: dataset A is STR-packed into an R-tree
//     hierarchy. Packing the elements tightly "opens up empty space between
//     partitions" — regions covered by no node MBR.
//  2. Hierarchical assignment: each object of B descends from the root
//     toward the single deepest node whose subtree could contain join
//     partners. If, at some node, *no* child MBR (expanded by the join
//     distance eps) intersects the object, the object falls into empty space
//     and is filtered out entirely — by definition no A element can be close
//     enough. If exactly one child matches, the object descends. If several
//     match, it is assigned to the current node's bucket.
//
// The probe phase then joins each bucket against only the subtree below its
// node, pruning with MBRs. Every B object lives in exactly one bucket, so no
// result deduplication is needed and the memory footprint is one bucket entry
// per surviving object plus the tree on A — the "equally small memory
// footprint" the paper contrasts with PBSM's replication.
//
// Engineering note: like the original system (built for BlueGene/P memory
// budgets), the hierarchy lives in contiguous arrays. It is built straight
// from the STR tiles, fanout consecutive nodes per parent as rtree.STR
// groups them, and laid out level by level from the root down, so the
// children of a node are one contiguous run of the node array; node MBRs are
// pre-expanded by eps once. The probe takes a bucket a chunk at a time: a
// chunk descends its bucket's subtree once, testing each child's box against
// the chunk's surviving objects and recursing with those that pass, so every
// node is loaded once per chunk rather than once per object. The box tests,
// node visits and comparisons are exactly those of a per-object descent; only
// the order of memory accesses differs. The constant factors matter: this
// join is the inner loop of model building.
package touch

import (
	"time"

	"neurospatial/internal/geom"
	"neurospatial/internal/join"
	"neurospatial/internal/parallel"
	"neurospatial/internal/rtree"
)

// Options tunes the algorithm; the zero value selects the defaults used in
// the experiments.
type Options struct {
	// Fanout is the node capacity of dataset A's hierarchy. Values <= 0
	// select DefaultFanout, the sweet spot measured on the synapse
	// workload: small nodes keep sibling MBR overlap low, which is what
	// lets the assignment descend deep and the probe prune early. Values
	// 1 to 3 are raised to 4, the smallest capacity an R-tree node has.
	Fanout int
	// MaxAssignDepth caps how deep the assignment descends below the root;
	// 0 means unlimited. The ablation bench uses it: depth-capped
	// assignment degenerates TOUCH toward an indexed nested loop whose
	// probes repeatedly search large subtrees, demonstrating why
	// hierarchical assignment matters.
	MaxAssignDepth int
	// Workers parallelizes the probe phase across goroutines, mirroring the
	// multicore deployment of the original system. 0 or 1 probes on the
	// calling goroutine; values > 1 use that many workers; negative values
	// use one worker per CPU. Every pair is emitted exactly once, and the
	// emitted sequence is the same for any worker count (the work units'
	// buffers are merged in unit order), though join.Algorithm does not
	// promise any particular order; the stats counters are summed across
	// workers.
	Workers int
}

// DefaultFanout is the node capacity used when Options.Fanout is zero.
const DefaultFanout = 8

// minFanout is the smallest node capacity the hierarchy is built with. It
// also keeps the level build terminating: at fanout 1 no level shrinks.
const minFanout = 4

// probeChunk is the number of one bucket's objects a probe work unit carries
// down the bucket's subtree together.
const probeChunk = 2048

// Touch is the TOUCH join algorithm. It satisfies join.Algorithm.
type Touch struct {
	Opts Options
}

// New returns a Touch with default options.
func New() *Touch { return &Touch{} }

// Name implements join.Algorithm.
func (t *Touch) Name() string { return "TOUCH" }

// flatNode is one node of the hierarchy. An internal node's children are
// nodes[first:first+count]; a leaf's items are leafA[first:first+count].
type flatNode struct {
	box    geom.AABB // MBR expanded by eps
	first  int32
	count  int32
	isLeaf bool
}

// hierarchy is dataset A's STR hierarchy in level order: nodes[0] is the
// root, and each level follows the one above it.
type hierarchy struct {
	nodes []flatNode
	leafA []int32     // A indices, one run per leaf
	leafB []geom.AABB // A boxes expanded by eps, parallel to leafA
}

// buildHierarchy STR-packs a into leaves of at most fanout items and groups
// each level into parents of fanout consecutive nodes until one root is
// left, the tree rtree.STR builds. Every MBR is expanded by eps, so the hot
// loops test plain overlap.
func buildHierarchy(a []join.Object, eps float64, fanout int) hierarchy {
	items := make([]rtree.Item, len(a))
	for i := range a {
		items[i] = rtree.Item{Box: a[i].Box, ID: int32(i)}
	}
	tiles := rtree.PackSTR(items, fanout)
	sizes := []int{len(tiles)} // nodes per level, leaves first
	total := len(tiles)
	for n := len(tiles); n > 1; {
		n = (n + fanout - 1) / fanout
		sizes = append(sizes, n)
		total += n
	}
	h := hierarchy{
		nodes: make([]flatNode, total),
		leafA: make([]int32, 0, len(a)),
		leafB: make([]geom.AABB, 0, len(a)),
	}
	// Fill bottom-up with raw MBRs, each level placed above the one below.
	start := total - len(tiles)
	for i, tile := range tiles {
		box := geom.EmptyAABB()
		for _, it := range tile {
			box = box.Union(it.Box)
			h.leafA = append(h.leafA, it.ID)
			h.leafB = append(h.leafB, it.Box.Expand(eps))
		}
		h.nodes[start+i] = flatNode{box: box, first: int32(len(h.leafA) - len(tile)),
			count: int32(len(tile)), isLeaf: true}
	}
	for lvl := 1; lvl < len(sizes); lvl++ {
		below, end := start, start+sizes[lvl-1]
		start -= sizes[lvl]
		for p := 0; p < sizes[lvl]; p++ {
			first := below + p*fanout
			last := min(first+fanout, end)
			box := geom.EmptyAABB()
			for c := first; c < last; c++ {
				box = box.Union(h.nodes[c].box)
			}
			h.nodes[start+p] = flatNode{box: box, first: int32(first), count: int32(last - first)}
		}
	}
	for i := range h.nodes {
		h.nodes[i].box = h.nodes[i].box.Expand(eps)
	}
	return h
}

// Join implements join.Algorithm. The order of the emitted pairs depends
// only on the inputs and options, not on Options.Workers.
func (t *Touch) Join(a, b []join.Object, eps float64, emit func(join.Pair)) join.Stats {
	var st join.Stats
	if len(a) == 0 || len(b) == 0 {
		return st
	}
	fanout := t.Opts.Fanout
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	fanout = max(fanout, minFanout)

	// Phase 1: data-oriented partitioning of A.
	buildStart := time.Now()
	h := buildHierarchy(a, eps, fanout)
	nodes := h.nodes

	// Phase 2: hierarchical assignment of B.
	buckets := make([][]int32, len(nodes))
	assigned := 0
	maxDepth := t.Opts.MaxAssignDepth
	for i := range b {
		bbox := b[i].Box
		cur := int32(0)
		st.BoxTests++
		if !nodes[cur].box.Intersects(bbox) {
			continue // empty space at the root: filtered
		}
		depth := 0
		dropped := false
		for !nodes[cur].isLeaf && (maxDepth <= 0 || depth < maxDepth) {
			n := &nodes[cur]
			match := int32(-1)
			matches := 0
			for c := n.first; c < n.first+n.count; c++ {
				st.BoxTests++
				if nodes[c].box.Intersects(bbox) {
					matches++
					match = c
					if matches > 1 {
						break
					}
				}
			}
			if matches == 0 {
				// Empty space between the children: filtered out.
				dropped = true
				break
			}
			if matches > 1 {
				break // partners may live under several children: assign here
			}
			cur = match
			depth++
		}
		if !dropped {
			buckets[cur] = append(buckets[cur], int32(i))
			assigned++
		}
	}
	// Memory: tree entries, one 4-byte link per non-root node, and one
	// bucket slot per surviving object.
	st.ExtraBytes = int64(len(nodes))*(6*8+9) + int64(len(h.leafA))*(4+6*8) +
		int64(len(nodes)-1)*4 + int64(assigned)*4
	st.BuildTime = time.Since(buildStart)

	// Phase 3: probe each bucket against its subtree, a chunk at a time.
	probeStart := time.Now()
	type unit struct {
		node int32
		ids  []int32
	}
	var units []unit
	for n, ids := range buckets {
		for lo := 0; lo < len(ids); lo += probeChunk {
			units = append(units, unit{node: int32(n), ids: ids[lo:min(lo+probeChunk, len(ids))]})
		}
	}
	workers := t.Opts.Workers
	if workers == 0 {
		workers = 1
	}
	workers = parallel.Workers(workers)
	stats := make([]join.Stats, workers)
	probes := make([]prober, workers)
	for w := range probes {
		probes[w] = prober{h: &h, a: a, b: b, eps: eps, st: &stats[w]}
	}
	parallel.Collect(workers, len(units), func(w, slot int, emit func(join.Pair)) {
		p, u := &probes[w], units[slot]
		p.stack = append(p.stack[:0], u.ids...)
		p.emit = emit
		p.descend(u.node, 0, len(u.ids))
		p.emit = nil
	}, emit)
	st.Merge(stats)
	st.ProbeTime = time.Since(probeStart)
	return st
}

// prober is one probe worker's read-only view of the join plus its own
// counters and scratch.
type prober struct {
	h    *hierarchy
	a, b []join.Object
	eps  float64
	st   *join.Stats
	emit func(join.Pair)
	// stack holds the B objects alive at every level of the current
	// descent: each level's run is appended after its parent's and dropped
	// on return.
	stack []int32
}

// descend joins the B objects stack[lo:hi], all of which reach node, against
// the subtree at node.
func (p *prober) descend(node int32, lo, hi int) {
	n := &p.h.nodes[node]
	alive := int64(hi - lo)
	p.st.NodePairs += alive
	p.st.BoxTests += int64(n.count) * alive
	if n.isLeaf {
		for k := n.first; k < n.first+n.count; k++ {
			abox, ai := &p.h.leafB[k], p.h.leafA[k]
			for _, bi := range p.stack[lo:hi] {
				if !abox.Intersects(p.b[bi].Box) {
					continue
				}
				p.st.Comparisons++
				if p.a[ai].Seg.WithinDist(p.b[bi].Seg, p.eps) {
					p.st.Results++
					p.emit(join.Pair{A: p.a[ai].ID, B: p.b[bi].ID})
				}
			}
		}
		return
	}
	for c := n.first; c < n.first+n.count; c++ {
		box := &p.h.nodes[c].box
		top := len(p.stack)
		for _, bi := range p.stack[lo:hi] {
			if box.Intersects(p.b[bi].Box) {
				p.stack = append(p.stack, bi)
			}
		}
		if len(p.stack) > top {
			p.descend(c, top, len(p.stack))
			p.stack = p.stack[:top]
		}
	}
}
