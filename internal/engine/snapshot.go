package engine

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// Snapshot is one immutable epoch of a Dataset: a consistent view of the item
// set that readers can pin (Session.Open with WithDataset) while later
// commits land. Structurally it is a delta overlay over a base:
//
//	base   the epoch's contender indexes (flat/rtree/grid/sharded — whichever
//	       the Dataset is configured with), built once over the base item set
//	       and shared read-only by every epoch until a compaction rebuilds
//	       them;
//	delta  the items inserted or updated since that build: an ID-ordered
//	       sequence of small immutable chunks, each carrying its MBR, shared
//	       between epochs except where a commit touched them (delta.go). A
//	       request tests only the entries of chunks its predicate admits;
//	tombs  a bitset over base-local IDs marking the base items deleted or
//	       updated since the build — base hits whose bit is set are filtered
//	       out at query time.
//
// Queries run through the snapshot's per-contender views (Index/Indexes):
// each view implements SpatialIndex.Do by executing the request on its base
// index, dropping tombstoned hits, translating base-local IDs to the dataset's
// stable global IDs, merging in the delta overlay's hits, and emitting
// the union in the canonical per-kind order — hit for hit identical to a
// from-scratch build of the epoch's live item set. That is the contenders'
// own eager executor (execute, exec.go) with the snapshot as its overlay
// argument: the base's native scan into the pooled collector, one sort, and
// one pass that filters, refines, translates and merges — so a request costs
// what it costs on the raw contender plus O(answer + touched delta), and at an
// empty overlay the view's Do is its base's, stats included. QueryStats gain
// DeltaEntries and Tombstones, the two maintenance counters of the overlay.
// Stream and paginated Do take the lazy twin of that executor (stream,
// iter.go) with the same overlay argument: the base's candidate pages and the
// admitted delta chunks in one zone-ordered loop that filters and translates
// as it reads, so stopping early leaves the rest unread.
//
// A Snapshot also carries its own Planner over the views. Its plan cache is
// the epoch's own, but its per-kind cost history is inherited from the parent
// epoch when both share a base: QueryStats.Cost() counts base pages and index
// reads only, which the overlay does not change, so only a compaction (new
// bases) starts the history — and the calibration probes — over.
//
// Snapshots are immutable and safe for concurrent readers. Pinning
// (Session.Open / Dataset.Acquire) and Release are refcounting for
// observability — Dataset.Stats reports how many sessions still read old
// epochs; memory itself is reclaimed by the garbage collector once the last
// reference drops.
type Snapshot struct {
	epoch int
	opts  DatasetOptions

	// baseIDs are the base build's global item IDs, ascending: base index
	// local ID l is the item baseIDs[l], and baseBox(l) is its box — read
	// from a base contender's coordinate sidecar, so a generation holds no
	// other copy of them (see baseBoxes). Shared read-only
	// across epochs until compaction.
	baseIDs []int32
	baseBox func(l int32) geom.AABB
	// bases are the contender indexes over the base items relabeled to dense
	// local IDs, aligned with opts.Contenders (nil when the base is empty).
	bases []SpatialIndex
	// chunks is the delta overlay (see delta.go); nDelta its entry count.
	chunks []*deltaChunk
	nDelta int
	// tombs marks base-local IDs dead in this epoch (nil until the first
	// tombstone); nTombs counts the set bits.
	tombs  []uint64
	nTombs int

	live   int
	bounds geom.AABB

	// layout is the epoch's item-page layout (global IDs in base order, dead
	// entries patched out copy-on-write, then one page per delta chunk) —
	// what a disk-backed implementation would persist. nBasePages is the
	// fixed base prefix; cow accounts how much of the previous epoch's
	// layout this one reused.
	layout     *pager.Store
	nBasePages int
	cow        pager.CowStats

	views   []SpatialIndex
	planner *Planner

	pins atomic.Int32
}

// newSnapshot returns the epoch a fresh base build publishes: baseItems (in
// ascending global-ID order) laid out on layout, with an empty overlay.
func newSnapshot(epoch int, opts DatasetOptions, baseItems []rtree.Item,
	bases []SpatialIndex, layout *pager.Store) *Snapshot {

	sn := &Snapshot{
		epoch: epoch, opts: opts, bases: bases,
		baseIDs: make([]int32, len(baseItems)), baseBox: baseBoxes(bases, baseItems),
		live: len(baseItems), bounds: geom.EmptyAABB(),
		layout: layout, nBasePages: layout.NumPages(),
	}
	for l, it := range baseItems {
		sn.baseIDs[l] = it.ID
	}
	if len(bases) > 0 {
		sn.bounds = bases[0].Bounds()
	}
	sn.wire()
	return sn
}

// baseBoxes returns the box accessor of a base build by local ID: the
// sidecar of the first contender, which every contender keeps anyway, else
// the item slice itself (which the accessor then keeps alive).
func baseBoxes(bases []SpatialIndex, items []rtree.Item) func(int32) geom.AABB {
	for _, b := range bases {
		if ix, ok := b.(traverser); ok {
			return ix.itemBoxes()
		}
	}
	return func(l int32) geom.AABB { return items[l].Box }
}

// wire builds the views and the per-snapshot planner over them.
func (sn *Snapshot) wire() {
	sn.views = make([]SpatialIndex, len(sn.opts.Contenders))
	for i, name := range sn.opts.Contenders {
		var base contender
		if sn.bases != nil {
			base = sn.bases[i].(contender) // NewDataset admits nothing else
		}
		sn.views[i] = &snapView{name: name, snap: sn, base: base}
	}
	sn.planner = NewPlanner(sn.views...)
	// The per-snapshot planner serves exactly this epoch: keying its plan
	// cache by the epoch makes a cached decision unable to survive a Commit
	// or Compact (each builds a new snapshot, planner and epoch), even when
	// the live item set is identical.
	sn.planner.SetEpoch(int64(sn.epoch))
}

// Epoch returns the snapshot's commit sequence number (0 for the initial
// build; every Commit and Compact increments it).
func (sn *Snapshot) Epoch() int { return sn.epoch }

// NumItems returns the number of live items in this epoch.
func (sn *Snapshot) NumItems() int { return sn.live }

// Bounds returns the epoch's (possibly conservative — see Compact) MBR.
func (sn *Snapshot) Bounds() geom.AABB { return sn.bounds }

// DeltaEntries returns the size of the delta overlay.
func (sn *Snapshot) DeltaEntries() int { return sn.nDelta }

// TombstoneCount returns the number of tombstoned base items.
func (sn *Snapshot) TombstoneCount() int { return sn.nTombs }

// Indexes returns the snapshot's contender views in configuration order.
// Every view serves the same live item set with identical canonical-order
// output; they differ only in cost profile.
func (sn *Snapshot) Indexes() []SpatialIndex { return sn.views }

// Index returns the named contender view, or nil.
func (sn *Snapshot) Index(name string) SpatialIndex {
	for _, v := range sn.views {
		if v.Name() == name {
			return v
		}
	}
	return nil
}

// Planner returns the snapshot's own planner over its views. Its plan cache
// is this epoch's alone; its cost history starts as a copy of the parent
// epoch's when the two share a base (see Snapshot).
func (sn *Snapshot) Planner() *Planner { return sn.planner }

// Store returns the epoch's item-page layout (base pages, dead entries
// patched out, delta pages appended).
func (sn *Snapshot) Store() *pager.Store { return sn.layout }

// CowStats reports how much of the previous epoch's layout this epoch's
// commit reused (zero for the initial build and for compactions, which lay
// out fresh pages).
func (sn *Snapshot) CowStats() pager.CowStats { return sn.cow }

// Pins returns the number of outstanding acquisitions (pinned sessions).
func (sn *Snapshot) Pins() int { return int(sn.pins.Load()) }

// Release drops one acquisition (Dataset.Acquire or a pinned Session's
// Close). Releasing more than acquired panics — it indicates a double Close.
func (sn *Snapshot) Release() {
	if sn.pins.Add(-1) < 0 {
		panic("engine: Snapshot.Release without matching acquire")
	}
}

func (sn *Snapshot) acquire() { sn.pins.Add(1) }

// ItemBox returns the live box of global item id, and whether the item is
// live in this epoch.
func (sn *Snapshot) ItemBox(id int32) (geom.AABB, bool) {
	if ci, i := deltaSeek(sn.chunks, id); ci < len(sn.chunks) && sn.chunks[ci].ids[i] == id {
		return sn.chunks[ci].boxes[i], true
	}
	if l, ok := sn.baseLocal(id); ok && !sn.dead(l) {
		return sn.baseBox(l), true
	}
	return geom.AABB{}, false
}

// baseLocal locates global id in the base item set (ascending by ID).
func (sn *Snapshot) baseLocal(id int32) (int32, bool) {
	if n := len(sn.baseIDs); n == 0 || id > sn.baseIDs[n-1] {
		return 0, false
	}
	l, ok := slices.BinarySearch(sn.baseIDs, id)
	return int32(l), ok
}

// dead reports whether base-local ID l is tombstoned in this epoch.
func (sn *Snapshot) dead(l int32) bool {
	w := int(l >> 6)
	return w < len(sn.tombs) && sn.tombs[w]&(1<<(uint(l)&63)) != 0
}

// snapView is one contender's face of a snapshot: the base index plus the
// overlay merge. It implements the full SpatialIndex surface so sessions and
// planners treat a snapshot exactly like a raw contender, and the traverser
// surface so the eager executor runs it like one.
type snapView struct {
	name string
	snap *Snapshot
	base contender // nil when the epoch's base item set is empty
}

// Name implements SpatialIndex; views keep their contender's name, so
// per-kind routing decisions read the same as on raw indexes.
func (v *snapView) Name() string { return v.name }

// Build implements SpatialIndex. Snapshots are immutable: mutations go
// through Dataset.Begin/Commit, rebuilds through Dataset.Compact.
func (v *snapView) Build([]rtree.Item) error {
	return fmt.Errorf("engine: snapshot views are immutable; mutate through the Dataset (Begin/Commit, Compact)")
}

// Bounds implements SpatialIndex.
func (v *snapView) Bounds() geom.AABB { return v.snap.bounds }

// NumItems implements SpatialIndex: the live item count of the epoch. Unlike
// raw indexes, view IDs are the dataset's stable global IDs and need not be
// dense — deletes leave gaps, inserts allocate past the initial range.
func (v *snapView) NumItems() int { return v.snap.live }

// Do implements SpatialIndex: base execution, tombstone filtering, delta
// merge, canonical order — identical output to a from-scratch build of the
// epoch's live items. It is the shared eager executor over the view's scan
// and kNN hierarchy with the snapshot as the overlay; emission starts only
// after the base traversal has returned, so Do stays all-or-nothing under
// cancellation.
func (v *snapView) Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error) {
	return execute(ctx, v, v.snap, req, visit)
}

// scan implements traverser: the base contender's native scan — base-local
// IDs in its emission order, pages read through src when one is passed (else
// the base's attached source, or its store for a cold request). The overlay
// is not applied here: execute applies it to the sorted IDs, and a
// walkthrough over a snapshot would apply it in emission order.
func (v *snapView) scan(ctx context.Context, req Request, src pager.PageSource, out *idCollector) (QueryStats, error) {
	if v.base == nil {
		return QueryStats{}, nil
	}
	return v.base.scan(ctx, req, src, out)
}

// itemBoxes implements traverser: exact geometry by base-local ID, the IDs
// scan emits.
func (v *snapView) itemBoxes() func(int32) geom.AABB { return v.snap.baseBox }

// knnExpand implements traverser: the base contender's hierarchy (none when
// the base is empty). Like scan it does not apply the overlay: the search's
// offer drops tombstoned residents and execute offers the delta.
func (v *snapView) knnExpand(s *knnSearch, e knnEntry) error {
	if v.base == nil {
		return nil
	}
	return v.base.knnExpand(s, e)
}

// zonePages implements traverser: the base contender's candidates (none when
// the base is empty). Like scan it does not apply the overlay: stream
// translates the zones, drops tombstoned residents and adds the delta chunks.
func (v *snapView) zonePages(req Request, ps *pageStream) pager.PageSource {
	if v.base == nil {
		return nil
	}
	return v.base.zonePages(req, ps)
}
