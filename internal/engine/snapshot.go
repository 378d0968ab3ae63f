package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/parallel"
	"neurospatial/internal/rtree"
)

// Snapshot is one immutable epoch of a Dataset: a consistent view of the item
// set that readers can pin (Session.Open with WithDataset) while later
// commits land. Structurally it is a delta overlay over a base:
//
//	base   the epoch's contender indexes (flat/rtree/grid/sharded — whichever
//	       the Dataset is configured with), built once over the base item set
//	       and shared read-only by every epoch until a compaction rebuilds
//	       them. A compaction may defer the contenders its planner routes no
//	       request kind to (see Dataset.Compact): each such one is built, once,
//	       by the first view traversal, planner probe, Bases call or freeze
//	       that needs it;
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
// A paginated Do is a slice of that same execution (executePage), so a page
// reads what its full query reads.
//
// A Snapshot also carries its own Planner over the views. Its plan cache is
// the epoch's own, but its per-kind cost history is inherited from the parent
// epoch: QueryStats.Cost() counts base pages and index reads only, which the
// overlay does not change, and a compaction rebuilds the bases over nearly the
// same items. So only an epoch with nothing to inherit — NewDataset's, a
// reopened dataset's — calibrates by probing, and a contender a compaction
// deferred is never probed for a kind the history already prices.
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
	// local IDs, aligned with opts.Contenders (nil when the base is empty); an
	// entry is nil while deferred[i] holds that contender instead. deferred is
	// nil when the base build built every contender.
	bases    []SpatialIndex
	deferred []*lazyBase
	// chunks is the delta overlay (see delta.go); nDelta its entry count.
	chunks []*deltaChunk
	nDelta int
	// tombs marks base-local IDs dead in this epoch (nil until the first
	// tombstone); nTombs counts the set bits.
	tombs  []uint64
	nTombs int

	live   int
	bounds geom.AABB

	// cow accounts the commit that published this epoch (see CowStats).
	cow CowStats

	views   []SpatialIndex
	planner *Planner

	pins atomic.Int32
}

// newSnapshot returns the epoch a fresh base build publishes: baseItems (in
// ascending global-ID order) with an empty overlay. A nil entry of bases is a
// contender the build deferred: it gets a lazyBase slot.
func newSnapshot(epoch int, opts DatasetOptions, baseItems []rtree.Item, bases []SpatialIndex) *Snapshot {

	sn := &Snapshot{
		epoch: epoch, opts: opts, bases: bases,
		baseIDs: make([]int32, len(baseItems)), baseBox: baseBoxes(bases, baseItems),
		live: len(baseItems), bounds: geom.EmptyAABB(),
	}
	for l, it := range baseItems {
		sn.baseIDs[l] = it.ID
	}
	for i, b := range bases {
		switch {
		case b == nil:
			if sn.deferred == nil {
				sn.deferred = make([]*lazyBase, len(bases))
			}
			sn.deferred[i] = &lazyBase{name: opts.Contenders[i], opts: opts, n: len(baseItems), box: sn.baseBox}
		case sn.bounds.IsEmpty(): // the first built contender's
			sn.bounds = b.Bounds()
		}
	}
	sn.wire()
	return sn
}

// baseBoxes returns the box accessor of a base build by local ID: the
// sidecar of the first built contender, which every contender keeps anyway,
// else the item slice itself (which the accessor then keeps alive).
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
		v := &snapView{name: name, snap: sn}
		switch {
		case sn.bases == nil:
		case sn.bases[i] != nil:
			v.base = sn.bases[i].(contender) // NewDataset admits nothing else
		default:
			v.slot = sn.deferred[i]
		}
		sn.views[i] = v
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

// Bases returns the snapshot's base contenders, aligned with
// DatasetOptions.Contenders (nil when the base is empty): the indexes its
// views run over, built over the base items relabeled to dense local IDs —
// at the epoch NewDataset publishes, the items' own IDs. They serve the base
// build alone, without the overlay, and are shared read-only with every
// epoch until the next compaction. Contenders that compaction deferred are
// built first, at once; an entry whose build failed is nil, and its view
// returns the build's error.
func (sn *Snapshot) Bases() []SpatialIndex {
	bases, _ := sn.builtBases()
	return bases
}

// builtBases is Bases with the deferred builds' errors: it builds every
// contender the base build deferred in one pass on the parallel pool, and
// returns the complete set (a copy when any was deferred).
func (sn *Snapshot) builtBases() ([]SpatialIndex, error) {
	if sn.deferred == nil {
		return sn.bases, nil
	}
	bases := slices.Clone(sn.bases)
	errs := make([]error, len(bases))
	parallel.ForEach(sn.opts.Workers, len(bases), func(_, i int) {
		if s := sn.deferred[i]; s != nil {
			bases[i], errs[i] = s.get()
		}
	})
	return bases, errors.Join(errs...)
}

// Planner returns the snapshot's own planner over its views. Its plan cache
// is this epoch's alone; its cost history starts as a copy of the parent
// epoch's, across a compaction too (see Snapshot).
func (sn *Snapshot) Planner() *Planner { return sn.planner }

// CowStats accounts the commit that published this epoch (zero for the
// initial build, a reopen and a compaction).
func (sn *Snapshot) CowStats() CowStats { return sn.cow }

// basePages is the number of pages of opts.PageSize the base items fill,
// dead ones included: the base part of DatasetStats.LayoutPages.
func (sn *Snapshot) basePages() int {
	return (len(sn.baseIDs) + sn.opts.PageSize - 1) / sn.opts.PageSize
}

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
	base contender // nil when the epoch's base item set is empty or slot is set
	slot *lazyBase // the deferred contender, when the base build deferred it
}

// resolve returns the base the view traverses: base itself, or the deferred
// contender, built on first use — nil, with the build's error if any, when
// there is none.
func (v *snapView) resolve() (contender, error) {
	if v.slot == nil {
		return v.base, nil
	}
	return v.slot.get()
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
	base, err := v.resolve()
	if base == nil {
		return QueryStats{}, err
	}
	return base.scan(ctx, req, src, out)
}

// itemBoxes implements traverser: exact geometry by base-local ID, the IDs
// scan emits.
func (v *snapView) itemBoxes() func(int32) geom.AABB { return v.snap.baseBox }

// knnExpand implements traverser: the base contender's hierarchy (none when
// the base is empty). Like scan it does not apply the overlay: the search's
// offer drops tombstoned residents and execute offers the delta.
func (v *snapView) knnExpand(s *knnSearch, e knnEntry) error {
	base, err := v.resolve()
	if base == nil {
		return err
	}
	return base.knnExpand(s, e)
}

// lazyBase holds a contender a compaction deferred. The first get builds it
// over the base items — n of them, box reading each back by local ID, so the
// slot keeps no copy — and every epoch sharing the base shares the one build;
// concurrent first callers wait for it. A failed build is the error of every
// call that needs the contender.
type lazyBase struct {
	once sync.Once
	name string
	opts DatasetOptions
	n    int
	box  func(int32) geom.AABB
	ix   contender
	err  error
}

// get is kept out of line, so that resolve inlines and a view over a built
// base reaches it without a call.
//
//go:noinline
func (b *lazyBase) get() (contender, error) {
	b.once.Do(b.build)
	return b.ix, b.err
}

func (b *lazyBase) build() {
	local := make([]rtree.Item, b.n)
	for l := range local {
		local[l] = rtree.Item{Box: b.box(int32(l)), ID: int32(l)}
	}
	ix, err := b.opts.newIndex(b.name)
	if err == nil {
		err = ix.Build(local)
	}
	if err != nil {
		b.err = fmt.Errorf("engine: building deferred %s base: %w", b.name, err)
		return
	}
	b.ix = ix.(contender)
}
