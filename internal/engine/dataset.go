package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/parallel"
	"neurospatial/internal/rtree"
)

// DatasetOptions configures a mutable Dataset.
type DatasetOptions struct {
	// Contenders names the index kinds every snapshot serves ("flat",
	// "rtree", "grid", "sharded"); empty selects just "flat". Duplicate names
	// are rejected — the per-snapshot planner routes by name. NewDataset, a
	// reopen and a checkpoint build them all; a compaction may defer the ones
	// its planner routes nothing to until first use (see Compact).
	Contenders []string
	// Flat configures the FLAT contender (and per-shard FLATs).
	Flat flat.Options
	// RTreeFanout configures the R-tree contender; <= 0 selects the default.
	RTreeFanout int
	// Grid configures the grid contender.
	Grid GridOptions
	// Shards is the shard count of the sharded contender; <= 0 selects 4.
	Shards int
	// PageSize caps a delta chunk's entry count (at most 64 either way) and
	// is the page capacity DatasetStats.LayoutPages counts in; <= 0 selects
	// the FLAT page size (so those page counts are comparable to FLAT's).
	PageSize int
	// CompactRatio triggers an automatic compaction after a commit when
	// (delta + tombstones) exceeds this fraction of the live item count;
	// <= 0 selects 0.25.
	CompactRatio float64
	// CompactMin is the minimum pending (delta + tombstones) count before
	// auto-compaction is considered; <= 0 selects 64. Keeping it above the
	// batch size avoids compacting after every small commit.
	CompactMin int
	// DisableAutoCompact turns the size/ratio trigger off; Compact can still
	// be called explicitly.
	DisableAutoCompact bool
	// Workers bounds each level of a rebuild's parallelism — the contenders
	// NewDataset and a compaction build at once, and the shards the sharded
	// contender builds at once inside its own Build (repository-wide
	// semantics; 0 selects one worker per CPU).
	Workers int

	// Bases, when non-nil, provides pre-built contender wrappers for the
	// initial snapshot — the engine's own *Flat, *RTree, *Grid, *Sharded —
	// aligned 1:1 with Contenders and built over exactly the initial item
	// set (dense IDs). The benchmark's traced runs use it to serve
	// contenders they built with read taps attached. Compactions always
	// build fresh instances from the options above.
	Bases []SpatialIndex
}

func (o DatasetOptions) sanitize() DatasetOptions {
	if len(o.Contenders) == 0 {
		o.Contenders = []string{"flat"}
	}
	if o.Flat.PageSize <= 0 {
		o.Flat = flat.DefaultOptions()
	}
	if o.PageSize <= 0 {
		o.PageSize = o.Flat.PageSize
	}
	if o.CompactRatio <= 0 {
		o.CompactRatio = 0.25
	}
	if o.CompactMin <= 0 {
		o.CompactMin = 64
	}
	return o
}

// buildOrder lists the kinds newIndex knows, longest Build over the same
// items first: the sharded contender partitions and then builds a FLAT per
// shard, FLAT derives its seed tree, the R-tree packs and lowers one tree,
// and the grid buckets. A first build, with no lastBuild to go by, starts its
// contenders in this order.
var buildOrder = [...]string{"sharded", "flat", "rtree", "grid"}

// maxContenders is the number of kinds newIndex knows, and so — NewDataset
// rejecting duplicates — the most a Dataset is configured with.
const maxContenders = len(buildOrder)

// newIndex constructs one fresh contender of the named kind.
func (o DatasetOptions) newIndex(name string) (SpatialIndex, error) {
	switch name {
	case "flat":
		return NewFlat(o.Flat), nil
	case "rtree":
		return NewRTree(o.RTreeFanout), nil
	case "grid":
		return NewGrid(o.Grid), nil
	case "sharded":
		s := NewSharded(ShardedOptions{Shards: o.Shards, Flat: o.Flat})
		s.workers = o.Workers
		return s, nil
	}
	return nil, fmt.Errorf("engine: unknown dataset contender %q (have flat, rtree, grid, sharded)", name)
}

// DatasetStats is a point-in-time summary of a Dataset's state and its
// maintenance history.
type DatasetStats struct {
	// Epoch is the current snapshot's sequence number.
	Epoch int
	// Live is the current live item count.
	Live int
	// DeltaEntries and Tombstones are the current overlay sizes.
	DeltaEntries, Tombstones int
	// Pinned counts sessions still pinned to the current snapshot.
	Pinned int
	// Commits, Compactions and AutoCompactions count maintenance events;
	// automatic compactions are included in Compactions.
	Commits, Compactions, AutoCompactions int64
	// Inserts, Deletes and Updates count applied operations.
	Inserts, Deletes, Updates int64
	// LayoutPages counts the current snapshot's items in pages of PageSize:
	// the base items (dead ones included) in ⌈base/PageSize⌉ pages, then one
	// page per delta chunk. It is derived from those counts; no such pages
	// are built.
	LayoutPages int
	// Cow is CowStats summed over all commits — how much of that page count
	// each commit left as it was, derived from what it changed.
	Cow CowStats
	// BuildTimes[i] is how long Contenders[i]'s Build took the last time the
	// bases were built (NewDataset or a compaction); entries past
	// len(Contenders), a contender that compaction deferred (its later build
	// on first use is not counted), and all of them while this process has
	// built no base, are 0. An array, so that DatasetStats stays comparable.
	BuildTimes [maxContenders]time.Duration
	// LastCompaction is the wall time of the most recent compaction — merge,
	// rebuilds and publish, the stall its committer saw; 0 before the first.
	LastCompaction time.Duration
}

// CowStats accounts one commit in the pages DatasetStats.LayoutPages counts,
// as a copy-on-write remap of those pages would: a base page holding an item
// the commit tombstones is patched, the delta pages from the first chunk the
// commit rewrites on are dropped and the new epoch's appended, and every
// other page is shared.
type CowStats struct {
	// Shared counts the base pages the commit tombstones no item on and the
	// delta chunks before the first one it rewrites.
	Shared int
	// Patched counts the base pages holding an item the commit tombstones.
	Patched int
	// Dropped counts the previous epoch's delta chunks from the first one
	// the commit rewrites on.
	Dropped int
	// Appended counts the new epoch's delta chunks from that position on.
	Appended int
}

// Add accumulates o into s.
func (s *CowStats) Add(o CowStats) {
	s.Shared += o.Shared
	s.Patched += o.Patched
	s.Dropped += o.Dropped
	s.Appended += o.Appended
}

// Dataset is the engine's mutable ownership model: writers apply batched
// mutations (Begin / Insert / Delete / Update / Commit) that produce immutable
// Snapshot epochs, and readers pin an epoch (Session.Open with WithDataset) so
// every Do/DoBatch sees a consistent view while later commits land — the
// per-update maintenance trade of answering queries under updates: a commit
// never rebuilds an index. It rewrites the overlay chunks its batch touches
// and shares the rest with the previous epoch, and copies the tombstone bitset
// only when it adds to it — work in the size of the batch, plus one copy of
// the chunk list's pointers and of the bitset's words, not in the overlay's
// entries (bench: dataset.commit_us_per_op). A request in turn tests the
// overlay entries of the chunks near its answer, not the overlay (bench:
// snapshot.delta_entries_per_query against snapshot.overlay_size), although
// the overlay itself grows to CompactRatio of the live set between
// compactions.
//
// The base contender indexes are untouched ("unchanged on disk") until a
// size/ratio-triggered — or explicit — Compact folds the overlay down,
// rebuilding the bases over the live item set via the existing Build path on
// the parallel pool: at once the contenders the planner routes a request kind
// to, and the rest on first use.
//
// All Dataset methods are safe for concurrent use; Commit is serialized
// internally, readers never block writers (they hold immutable snapshots).
// Item IDs are stable global IDs: the initial items keep theirs, Insert
// allocates fresh ones, and neither Compact nor Delete renumbers anything.
type Dataset struct {
	// writeMu serializes writers (Commit, Compact). Slow work — the overlay
	// merge, compaction's index rebuilds — happens under writeMu only,
	// so readers are never blocked by it.
	writeMu sync.Mutex //neurospatial:lock dataset.write
	// mu guards the published state (cur and the counters); it is held only
	// for pointer swaps and counter updates, never across builds — and in
	// particular never across file I/O (noio), so readers can't stall on a
	// slow disk.
	mu     sync.Mutex //neurospatial:lock dataset.state noio < dataset.write
	opts   DatasetOptions
	cur    *Snapshot
	nextID atomic.Int32

	commits, compactions, autoCompactions int64
	inserts, deletes, updates             int64
	cowTotal                              CowStats
	// lastBuild[i] is how long Contenders[i] took in the last buildBases (nil
	// before the first): the next one's start order, and Stats' answer to
	// where a rebuild's time went. Written under writeMu and mu, so either
	// lock suffices to read it.
	lastBuild   []time.Duration
	lastCompact time.Duration

	// onCommit, when set, is called under writeMu after a batch validates
	// (and before the new epoch publishes) with the epoch the batch will
	// publish as and its raw ops. An error aborts the whole batch — the
	// durability layer uses this to refuse to publish an epoch whose WAL
	// record did not reach disk.
	onCommit func(epoch uint64, ops []txOp) error
}

// NewDataset builds the initial snapshot (epoch 0) over items, which must
// have dense IDs in [0, len(items)) — the same contract as SpatialIndex.Build —
// and boxes Tx.Commit would accept: no NaN coordinate, not empty.
func NewDataset(items []rtree.Item, opts DatasetOptions) (*Dataset, error) {
	opts = opts.sanitize()
	seen := make(map[string]bool, len(opts.Contenders))
	for _, name := range opts.Contenders {
		if seen[name] {
			return nil, fmt.Errorf("engine: duplicate dataset contender %q", name)
		}
		seen[name] = true
		if _, err := opts.newIndex(name); err != nil {
			return nil, err
		}
	}
	base := make([]rtree.Item, len(items))
	taken := make([]bool, len(items))
	for _, it := range items {
		if it.ID < 0 || int(it.ID) >= len(items) {
			return nil, fmt.Errorf("engine: dataset item ID %d not dense in [0,%d)", it.ID, len(items))
		}
		if taken[it.ID] {
			return nil, fmt.Errorf("engine: duplicate dataset item ID %d", it.ID)
		}
		if err := badBox(it.Box); err != nil {
			return nil, fmt.Errorf("engine: dataset item %d: %v", it.ID, err)
		}
		taken[it.ID] = true
		base[it.ID] = it
	}
	if opts.Bases != nil {
		if len(opts.Bases) != len(opts.Contenders) {
			return nil, fmt.Errorf("engine: %d pre-built bases for %d contenders", len(opts.Bases), len(opts.Contenders))
		}
		for i, b := range opts.Bases {
			if b.Name() != opts.Contenders[i] {
				return nil, fmt.Errorf("engine: pre-built base %d is %q, want %q", i, b.Name(), opts.Contenders[i])
			}
			if b.NumItems() != len(items) {
				return nil, fmt.Errorf("engine: pre-built base %q holds %d items, want %d", b.Name(), b.NumItems(), len(items))
			}
			// A view runs its base's native scan, which only the engine's
			// own contenders have.
			if _, ok := b.(contender); !ok {
				return nil, fmt.Errorf("engine: pre-built base %q is a %T, not one of the engine's contenders", b.Name(), b)
			}
		}
	}

	d := &Dataset{opts: opts}
	d.nextID.Store(int32(len(items)))

	bases := opts.Bases
	d.opts.Bases = nil // snapshots after epoch 0 never reuse them
	if bases == nil {
		var err error
		if bases, err = d.buildBases(base); err != nil {
			return nil, err
		}
	}
	d.cur = newSnapshot(0, d.opts, base, bases)
	return d, nil
}

// buildBases constructs and builds the configured contenders over items
// (ascending global-ID order), relabeled to dense local IDs, on the parallel
// pool: all of them, or, when eager is given (aligned with Contenders), the
// ones it marks — the others are left nil, and record a build time of 0.
// Returns nil for an empty item set — every contender requires at least one
// item, and the overlay serves empty bases fine. The caller holds writeMu, or
// owns a Dataset nobody else has seen yet.
func (d *Dataset) buildBases(items []rtree.Item, eager ...bool) ([]SpatialIndex, error) {
	if len(items) == 0 {
		return nil, nil
	}
	local := make([]rtree.Item, len(items))
	for l, it := range items {
		local[l] = rtree.Item{Box: it.Box, ID: int32(l)}
	}
	n := len(d.opts.Contenders)
	bases := make([]SpatialIndex, n)
	errs := make([]error, n)
	took := make([]time.Duration, n)
	// The pool hands slots out in ascending order, so the slot order is the
	// start order: the contender that took longest last time — on the first
	// build, the kind that builds longest — goes first and the short ones
	// fill in beside it, instead of the longest starting last and finishing
	// alone. Results are indexed by contender, not by slot.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if last := d.lastBuild; last != nil {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(last[b], last[a]) })
	} else {
		rank := func(i int) int { return slices.Index(buildOrder[:], d.opts.Contenders[i]) }
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rank(a), rank(b)) })
	}
	parallel.ForEach(d.opts.Workers, n, func(_, slot int) {
		i := order[slot]
		if eager != nil && !eager[i] {
			return
		}
		start := time.Now()
		ix, err := d.opts.newIndex(d.opts.Contenders[i])
		if err == nil {
			err = ix.Build(local)
		}
		bases[i], errs[i], took[i] = ix, err, time.Since(start)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("engine: building %s base: %w", d.opts.Contenders[i], err)
		}
	}
	d.mu.Lock()
	d.lastBuild = took
	d.mu.Unlock()
	return bases, nil
}

// Current returns the current snapshot without pinning it.
func (d *Dataset) Current() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cur
}

// Acquire pins and returns the current snapshot. The caller must Release it
// (Session.Open with WithDataset does both for you).
func (d *Dataset) Acquire() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cur.acquire()
	return d.cur
}

// Stats returns a point-in-time summary.
func (d *Dataset) Stats() DatasetStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DatasetStats{
		Epoch:           d.cur.epoch,
		Live:            d.cur.live,
		DeltaEntries:    d.cur.nDelta,
		Tombstones:      d.cur.nTombs,
		Pinned:          d.cur.Pins(),
		Commits:         d.commits,
		Compactions:     d.compactions,
		AutoCompactions: d.autoCompactions,
		Inserts:         d.inserts,
		Deletes:         d.deletes,
		Updates:         d.updates,
		LayoutPages:     d.cur.basePages() + len(d.cur.chunks),
		Cow:             d.cowTotal,
		LastCompaction:  d.lastCompact,
	}
	copy(st.BuildTimes[:], d.lastBuild)
	return st
}

// opKind tags one buffered mutation.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opUpdate
)

// Tx is one batched mutation: buffer operations, then Commit applies them
// atomically (all or nothing) and publishes a new snapshot epoch. A Tx is for
// one goroutine; concurrent transactions may be open at once — their Commits
// serialize, and validation runs against the snapshot current at commit time
// (last committer wins on delete/delete conflicts: the second Commit fails).
type Tx struct {
	ds   *Dataset
	ops  []txOp
	done bool
}

type txOp struct {
	kind opKind
	id   int32
	box  geom.AABB
}

// Begin opens a mutation batch.
func (d *Dataset) Begin() *Tx { return &Tx{ds: d} }

// Insert buffers a new item and returns its allocated global ID. IDs are
// allocated immediately (so a batch can reference its own inserts) and are
// not reused if the transaction rolls back.
func (t *Tx) Insert(box geom.AABB) int32 {
	id := t.ds.nextID.Add(1) - 1
	t.ops = append(t.ops, txOp{kind: opInsert, id: id, box: box})
	return id
}

// Delete buffers the removal of item id.
func (t *Tx) Delete(id int32) {
	t.ops = append(t.ops, txOp{kind: opDelete, id: id})
}

// Update buffers a box change of item id.
func (t *Tx) Update(id int32, box geom.AABB) {
	t.ops = append(t.ops, txOp{kind: opUpdate, id: id, box: box})
}

// Rollback discards the batch. Allocated Insert IDs are not reused.
func (t *Tx) Rollback() { t.done = true }

// badBox rejects boxes no index can serve (NaN coordinates poison every
// comparison; Min > Max is the empty box). Degenerate (point) boxes are fine.
func badBox(b geom.AABB) error {
	if vecHasNaN(b.Min) || vecHasNaN(b.Max) {
		return errors.New("box has NaN coordinates")
	}
	if b.IsEmpty() {
		return errors.New("box is empty (Min > Max on some axis)")
	}
	return nil
}

// Commit validates and applies the batch against the current snapshot,
// publishing a new epoch. On any invalid operation (delete or update of an
// item that is not live, malformed box) the whole batch is rejected and the
// dataset is unchanged — a nil snapshot with a non-nil error. Commit may
// additionally run an automatic compaction (see DatasetOptions); if that
// compaction fails, the committed (uncompacted) snapshot is still published
// and returned alongside the error — a non-nil snapshot with a non-nil
// error means the batch IS applied and must not be retried; the overlay
// simply stays pending for the next compaction attempt.
func (t *Tx) Commit() (*Snapshot, error) {
	if t.done {
		return nil, errors.New("engine: Commit on a finished Tx")
	}
	t.done = true
	d := t.ds
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	prev := d.Current() // stable: only writers replace it, and we are the writer

	// Validate the batch into its net effect per touched ID. prev stays
	// untouched — nothing it shares is written before the whole batch is
	// known to be valid.
	stg := make(map[int32]staged, len(t.ops))
	touched := make([]int32, 0, len(t.ops)) // the batch's distinct IDs
	var nIns, nDel, nUpd int64
	for i, op := range t.ops {
		s, seen := stg[op.id]
		if !seen {
			s.tomb = -1
			if ci, k := deltaSeek(prev.chunks, op.id); ci < len(prev.chunks) && prev.chunks[ci].ids[k] == op.id {
				s.live = true
			} else if l, ok := prev.baseLocal(op.id); ok && !prev.dead(l) {
				s.live, s.tomb = true, l // any change supersedes the base version
			}
		}
		switch op.kind {
		case opInsert:
			if err := badBox(op.box); err != nil {
				return nil, fmt.Errorf("engine: commit op %d: insert %d: %v", i, op.id, err)
			}
			s.live, s.box = true, op.box
			nIns++
		case opDelete:
			if !s.live {
				return nil, fmt.Errorf("engine: commit op %d: delete of item %d, which is not live", i, op.id)
			}
			s.live = false
			nDel++
		case opUpdate:
			if err := badBox(op.box); err != nil {
				return nil, fmt.Errorf("engine: commit op %d: update %d: %v", i, op.id, err)
			}
			if !s.live {
				return nil, fmt.Errorf("engine: commit op %d: update of item %d, which is not live", i, op.id)
			}
			s.box = op.box
			nUpd++
		}
		if !seen {
			touched = append(touched, op.id)
		}
		stg[op.id] = s
	}

	if d.onCommit != nil {
		if err := d.onCommit(uint64(prev.epoch)+1, t.ops); err != nil {
			return nil, fmt.Errorf("engine: commit aborted by durability hook: %w", err)
		}
	}

	// Tombstone the superseded base versions (copy-on-write: the bitset is
	// copied only by a batch that adds to it) and keep for the delta merge
	// only the IDs that can appear in it — a plain base delete cannot.
	snap := &Snapshot{
		epoch: prev.epoch + 1, opts: d.opts, baseIDs: prev.baseIDs, baseBox: prev.baseBox,
		bases: prev.bases, deferred: prev.deferred,
		tombs: prev.tombs, nTombs: prev.nTombs, bounds: prev.bounds,
	}
	var patch []int // the base pages (see basePages) holding a newly dead item
	ids := touched[:0]
	for _, id := range touched {
		s := stg[id]
		if s.tomb >= 0 {
			if len(patch) == 0 {
				snap.tombs = make([]uint64, (len(prev.baseIDs)+63)/64)
				copy(snap.tombs, prev.tombs)
			}
			snap.tombs[s.tomb>>6] |= 1 << (uint(s.tomb) & 63)
			snap.nTombs++
			patch = append(patch, int(s.tomb)/d.opts.PageSize)
			if !s.live {
				continue
			}
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	chunks, firstDirty, grow := mergeDelta(prev.chunks, ids, stg, min(deltaChunkCap, d.opts.PageSize))
	snap.chunks, snap.nDelta = chunks, prev.nDelta+grow
	snap.live = len(snap.baseIDs) - snap.nTombs + snap.nDelta
	for _, c := range chunks[firstDirty:] {
		snap.bounds = snap.bounds.Union(c.mbr) // deletes do not shrink it; Compact does
	}
	slices.Sort(patch)
	nPatched := len(slices.Compact(patch))
	snap.cow = CowStats{
		Shared:   prev.basePages() + firstDirty - nPatched,
		Patched:  nPatched,
		Dropped:  len(prev.chunks) - firstDirty,
		Appended: len(chunks) - firstDirty,
	}
	snap.wire()
	snap.planner.inheritCosts(prev.planner)
	d.mu.Lock()
	d.cur = snap
	d.commits++
	d.inserts += nIns
	d.deletes += nDel
	d.updates += nUpd
	d.cowTotal.Add(snap.cow)
	d.mu.Unlock()

	if !d.opts.DisableAutoCompact {
		pending := snap.nDelta + snap.nTombs
		if pending >= d.opts.CompactMin &&
			float64(pending) > d.opts.CompactRatio*float64(max(snap.live, 1)) {
			compacted, err := d.compactUnderWrite(false)
			if err != nil {
				// The batch is committed and stays committed; only the fold
				// failed. Report both facts (see the contract above).
				return snap, fmt.Errorf("engine: batch committed (epoch %d), but auto-compaction failed: %w",
					snap.epoch, err)
			}
			d.mu.Lock()
			d.autoCompactions++
			d.mu.Unlock()
			return compacted, nil
		}
	}
	return snap, nil
}

// Compact folds the overlay into a new base: the live item set is
// re-collected, the contender indexes are rebuilt over it via their normal
// Build path on the parallel pool, and a new epoch with an empty delta and
// tombstone set is published. Its planner inherits the outgoing cost history,
// so it routes without probing. When that history prices every contender for
// every request kind, only the contenders it ranks cheapest for some kind are
// built here; each other one is built on first use — a view's traversal, a
// planner probe, Bases, a checkpoint — outside the committing call, and a
// workload that never reads it never builds it. Pinned readers keep their
// epochs, and the rebuild itself blocks only other writers —
// Acquire/Current/Stats (and therefore Session.Open) stay responsive
// throughout. A no-op (empty overlay) returns the current snapshot unchanged.
func (d *Dataset) Compact() (*Snapshot, error) {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	return d.compactUnderWrite(false)
}

// eagerSet marks the contenders a compaction of prev builds at once: the
// ones prev's cost history ranks cheapest for some request kind, ties going
// to registration order as in PlanKind. It returns nil — build them all —
// unless the history prices every contender for every kind: an unpriced one
// could be the cheapest.
func (d *Dataset) eagerSet(prev *Snapshot) []bool {
	eager := make([]bool, len(d.opts.Contenders))
	for _, k := range Kinds() {
		dec := prev.planner.PlanKind(k, nil) // an empty sample never probes
		if len(dec.CostPerQuery) < len(eager) {
			return nil
		}
		eager[slices.Index(d.opts.Contenders, dec.Index.Name())] = true
	}
	return eager
}

// compactUnderWrite requires writeMu (and not mu) to be held: the merge and
// index rebuilds read only the immutable previous snapshot, and the result
// is published under mu at the end. all builds every contender; otherwise
// the ones eagerSet leaves out are deferred.
func (d *Dataset) compactUnderWrite(all bool) (*Snapshot, error) {
	prev := d.Current()
	if prev.nDelta == 0 && prev.nTombs == 0 {
		return prev, nil
	}
	start := time.Now()
	// Merge live base items with the delta, ascending global ID (both inputs
	// are sorted, IDs disjoint).
	merged := make([]rtree.Item, 0, prev.live)
	l := int32(0)
	liveBase := func() { // takes base-local l if it is live
		if !prev.dead(l) {
			merged = append(merged, rtree.Item{Box: prev.baseBox(l), ID: prev.baseIDs[l]})
		}
	}
	for _, c := range prev.chunks {
		for i, id := range c.ids {
			for ; int(l) < len(prev.baseIDs) && prev.baseIDs[l] < id; l++ {
				liveBase()
			}
			merged = append(merged, rtree.Item{Box: c.boxes[i], ID: id})
		}
	}
	for ; int(l) < len(prev.baseIDs); l++ {
		liveBase()
	}
	var eager []bool
	if !all {
		eager = d.eagerSet(prev)
	}
	bases, err := d.buildBases(merged, eager...)
	if err != nil {
		return nil, err
	}
	snap := newSnapshot(prev.epoch+1, d.opts, merged, bases)
	snap.planner.inheritCosts(prev.planner)
	d.mu.Lock()
	d.cur = snap
	d.compactions++
	d.lastCompact = time.Since(start)
	d.mu.Unlock()
	return snap, nil
}
