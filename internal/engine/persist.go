package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"neurospatial/internal/durable"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// This file is the durability bridge between the in-memory Dataset and the
// internal/durable file formats:
//
//   - freeze/thaw turn a compacted snapshot's contender indexes into
//     durable.IndexRec records and back. A frozen record holds only the sort
//     outputs a build computed (page layouts, leaf runs, grid dims, shard
//     partitions); thawing re-derives everything else with linear work, so
//     OpenDataset never re-sorts or re-indexes anything.
//   - DurableDataset wraps a Dataset with a write-ahead log (every Commit
//     appends and fsyncs its batch before the epoch publishes, via the
//     Dataset.onCommit hook) and a checkpoint protocol (compact, write
//     snapshot + page file + fresh WAL, then atomically install them with a
//     manifest rename).
//   - OpenDataset recovers the last durable state: thaw the manifest's
//     snapshot, attach each contender to its on-disk page segment for cold
//     reads, then replay the WAL's committed batches.

// maxDatasetEpoch bounds recovered epochs so a corrupt snapshot cannot
// overflow the in-memory int epoch.
const maxDatasetEpoch = 1 << 31

// encodeOptions renders the dataset options as the opaque blob stored in a
// snapshot. Bases is a build-time transfer of live index instances and is
// never serialized.
func encodeOptions(o DatasetOptions) ([]byte, error) {
	o.Bases = nil
	b, err := json.Marshal(o)
	if err != nil {
		return nil, fmt.Errorf("engine: encode dataset options: %w", err)
	}
	return b, nil
}

// decodeOptions parses a snapshot's options blob. A field this build does not
// know is an error naming it: the snapshot was written with an option that
// would otherwise be dropped without a word.
func decodeOptions(blob []byte) (DatasetOptions, error) {
	var o DatasetOptions
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return DatasetOptions{}, fmt.Errorf("engine: decode dataset options: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return DatasetOptions{}, fmt.Errorf("engine: decode dataset options: data after the options object")
	}
	return o, nil
}

// freezeIndex records the build outputs of one contender (see IndexRec for
// the per-kind field meaning).
func freezeIndex(name string, ix SpatialIndex) (durable.IndexRec, error) {
	rec := durable.IndexRec{Name: name}
	switch v := ix.(type) {
	case *Flat:
		st := v.Store()
		if st == nil {
			return rec, fmt.Errorf("engine: freeze of unbuilt flat index")
		}
		for p := 0; p < st.NumPages(); p++ {
			ids := st.Page(pager.PageID(p))
			rec.Order = append(rec.Order, ids...)
			rec.GroupLens = append(rec.GroupLens, int32(len(ids)))
		}
	case *RTree:
		// The directory is in pre-order, so its leaf nodes in index order are
		// the tree's leaves left to right: the runs FromLeafRuns rebuilds
		// the tree from.
		for i := range v.dir.Nodes {
			if v.dir.Nodes[i].Leaf() {
				ids := v.store.Page(pager.PageID(i))
				rec.Order = append(rec.Order, ids...)
				rec.GroupLens = append(rec.GroupLens, int32(len(ids)))
			}
		}
		rec.Meta = []int64{int64(v.fanout)}
	case *Grid:
		if v.g == nil {
			return rec, fmt.Errorf("engine: freeze of unbuilt grid index")
		}
		nx, ny, nz := v.g.Dims()
		rec.Meta = []int64{int64(nx), int64(ny), int64(nz)}
	case *Sharded:
		for i := range v.shards {
			sh := &v.shards[i]
			rec.GroupLens = append(rec.GroupLens, int32(len(sh.global)))
			rec.Order = append(rec.Order, sh.global...)
			rec.Bounds = append(rec.Bounds, sh.bounds)
			sub, err := freezeIndex("flat", sh.sub)
			if err != nil {
				return rec, fmt.Errorf("engine: freeze shard %d: %w", i, err)
			}
			rec.Subs = append(rec.Subs, sub)
		}
	default:
		return rec, fmt.Errorf("engine: cannot freeze index kind %T", ix)
	}
	return rec, nil
}

// splitGroups slices order into the runs described by lens, validating full
// coverage. The returned slices alias order.
func splitGroups(order, lens []int32) ([][]int32, error) {
	out := make([][]int32, 0, len(lens))
	off := 0
	for i, l := range lens {
		n := int(l)
		if n < 0 || off+n > len(order) {
			return nil, fmt.Errorf("group %d claims %d of %d remaining entries", i, n, len(order)-off)
		}
		out = append(out, order[off:off+n])
		off += n
	}
	if off != len(order) {
		return nil, fmt.Errorf("groups cover %d of %d entries", off, len(order))
	}
	return out, nil
}

// thawIndex reconstructs one top-level contender from its record over the
// dense local item set (items[l].ID == l).
func thawIndex(rec *durable.IndexRec, items []rtree.Item, o DatasetOptions) (SpatialIndex, error) {
	switch rec.Name {
	case "flat":
		return thawFlat(rec, items, o.Flat)
	case "rtree":
		return thawRTree(rec, items)
	case "grid":
		return thawGrid(rec, items, o.Grid)
	case "sharded":
		return thawSharded(rec, items, ShardedOptions{Shards: o.Shards, Flat: o.Flat})
	}
	return nil, fmt.Errorf("engine: thaw of unknown index kind %q", rec.Name)
}

func thawFlat(rec *durable.IndexRec, items []rtree.Item, fo flat.Options) (*Flat, error) {
	pages, err := splitGroups(rec.Order, rec.GroupLens)
	if err != nil {
		return nil, fmt.Errorf("engine: thaw flat: %w", err)
	}
	idx, err := flat.Rehydrate(items, pages, fo)
	if err != nil {
		return nil, fmt.Errorf("engine: thaw flat: %w", err)
	}
	return WrapFlat(idx), nil
}

func thawRTree(rec *durable.IndexRec, items []rtree.Item) (*RTree, error) {
	if len(rec.Meta) != 1 {
		return nil, fmt.Errorf("engine: thaw rtree: %d meta fields, want 1 (fanout)", len(rec.Meta))
	}
	if len(rec.Order) != len(items) {
		return nil, fmt.Errorf("engine: thaw rtree: %d leaf entries for %d items", len(rec.Order), len(items))
	}
	seen := make([]bool, len(items))
	leaf := make([]rtree.Item, len(rec.Order))
	for i, id := range rec.Order {
		if id < 0 || int(id) >= len(items) || seen[id] {
			return nil, fmt.Errorf("engine: thaw rtree: leaf entry %d names invalid or duplicate item %d", i, id)
		}
		seen[id] = true
		leaf[i] = rtree.Item{Box: items[id].Box, ID: id}
	}
	t, err := rtree.FromLeafRuns(leaf, rec.GroupLens, int(rec.Meta[0]))
	if err != nil {
		return nil, fmt.Errorf("engine: thaw rtree: %w", err)
	}
	return WrapRTree(t)
}

func thawGrid(rec *durable.IndexRec, items []rtree.Item, gridOpts GridOptions) (*Grid, error) {
	if len(rec.Meta) != 3 {
		return nil, fmt.Errorf("engine: thaw grid: %d meta fields, want 3 (nx, ny, nz)", len(rec.Meta))
	}
	nx, ny, nz := int(rec.Meta[0]), int(rec.Meta[1]), int(rec.Meta[2])
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("engine: thaw grid: invalid dims %d×%d×%d", nx, ny, nz)
	}
	gx := NewGrid(gridOpts)
	if err := gx.buildFixed(items, nx, ny, nz); err != nil {
		return nil, fmt.Errorf("engine: thaw grid: %w", err)
	}
	return gx, nil
}

// thawSharded mirrors Sharded.Build over the recorded partition: the shard
// membership, per-shard FLAT indexes and the global page space are
// reconstructed exactly as the original build wired them, without re-running
// shard.Partition.
func thawSharded(rec *durable.IndexRec, items []rtree.Item, opts ShardedOptions) (*Sharded, error) {
	s := NewSharded(opts)
	s.n = len(items)
	s.bounds = geom.EmptyAABB()
	if len(items) == 0 {
		if len(rec.GroupLens) != 0 {
			return nil, fmt.Errorf("engine: thaw sharded: %d shards over zero items", len(rec.GroupLens))
		}
		return s, nil
	}
	k := len(rec.GroupLens)
	if k == 0 || len(rec.Subs) != k || len(rec.Bounds) != k {
		return nil, fmt.Errorf("engine: thaw sharded: inconsistent shard record (%d sizes, %d subs, %d bounds)",
			k, len(rec.Subs), len(rec.Bounds))
	}
	if len(rec.Order) != len(items) {
		return nil, fmt.Errorf("engine: thaw sharded: partition covers %d of %d items", len(rec.Order), len(items))
	}
	parts, err := splitGroups(rec.Order, rec.GroupLens)
	if err != nil {
		return nil, fmt.Errorf("engine: thaw sharded: %w", err)
	}
	s.shards = make([]shardState, k)
	s.shardOf = make([]int32, len(items))
	s.local = make([]int32, len(items))
	seen := make([]bool, len(items))
	for i, globals := range parts {
		if len(globals) == 0 {
			return nil, fmt.Errorf("engine: thaw sharded: shard %d is empty", i)
		}
		localItems := make([]rtree.Item, len(globals))
		gcopy := make([]int32, len(globals))
		bounds := geom.EmptyAABB()
		prev := int32(-1)
		for l, g := range globals {
			// Ascending order within a shard is load-bearing (the kNN
			// tie-break relies on local IDs ascending with global IDs); it also rejects negatives and in-shard
			// duplicates, and seen catches cross-shard ones.
			if g <= prev || int(g) >= len(items) || seen[g] {
				return nil, fmt.Errorf("engine: thaw sharded: shard %d entry %d names invalid, duplicate or out-of-order item %d", i, l, g)
			}
			prev = g
			seen[g] = true
			gcopy[l] = g
			localItems[l] = rtree.Item{Box: items[g].Box, ID: int32(l)}
			s.shardOf[g] = int32(i)
			s.local[g] = int32(l)
			bounds = bounds.Union(items[g].Box)
		}
		if bounds != rec.Bounds[i] {
			return nil, fmt.Errorf("engine: thaw sharded: shard %d bounds diverge from the recorded partition", i)
		}
		if name := rec.Subs[i].Name; name != "flat" {
			return nil, fmt.Errorf("engine: thaw sharded: shard %d sub-index is %q, want \"flat\"", i, name)
		}
		sub, err := thawFlat(&rec.Subs[i], localItems, s.opts.Flat)
		if err != nil {
			return nil, fmt.Errorf("engine: thaw sharded: shard %d: %w", i, err)
		}
		s.shards[i] = shardState{sub: sub, bounds: bounds, global: gcopy}
		s.bounds = s.bounds.Union(bounds)
		sub.SetSource(&shardSource{owner: s, shard: i})
	}

	// The global page space, wired exactly as Build wires it.
	if err := s.globalStore(); err != nil {
		return nil, fmt.Errorf("engine: thaw sharded: %w", err)
	}
	return s, nil
}

// freezeSnapshot captures a compacted snapshot, whose complete base set is
// bases, as a durable record.
func (d *Dataset) freezeSnapshot(snap *Snapshot, bases []SpatialIndex) (*durable.SnapshotRec, error) {
	if snap.nDelta != 0 || snap.nTombs != 0 {
		return nil, fmt.Errorf("engine: freeze of uncompacted snapshot (epoch %d)", snap.epoch)
	}
	blob, err := encodeOptions(d.opts)
	if err != nil {
		return nil, err
	}
	items := make([]rtree.Item, len(snap.baseIDs))
	for l, id := range snap.baseIDs {
		items[l] = rtree.Item{Box: snap.baseBox(int32(l)), ID: id}
	}
	rec := &durable.SnapshotRec{
		Epoch:   uint64(snap.epoch),
		NextID:  d.nextID.Load(),
		Options: blob,
		Items:   items,
	}
	if bases != nil {
		rec.Indexes = make([]durable.IndexRec, len(d.opts.Contenders))
		for i, name := range d.opts.Contenders {
			ir, err := freezeIndex(name, bases[i])
			if err != nil {
				return nil, err
			}
			rec.Indexes[i] = ir
		}
	}
	return rec, nil
}

// thawDataset reconstructs a Dataset at the snapshot's epoch with an empty
// overlay — the state a compaction at that epoch published.
func thawDataset(rec *durable.SnapshotRec) (*Dataset, error) {
	opts, err := decodeOptions(rec.Options)
	if err != nil {
		return nil, err
	}
	opts = opts.sanitize()
	if rec.Epoch > maxDatasetEpoch {
		return nil, fmt.Errorf("engine: thaw: implausible epoch %d", rec.Epoch)
	}
	prev := int32(-1)
	for _, it := range rec.Items {
		if it.ID <= prev {
			return nil, fmt.Errorf("engine: thaw: snapshot items out of ID order at %d", it.ID)
		}
		prev = it.ID
	}
	if rec.NextID <= prev {
		return nil, fmt.Errorf("engine: thaw: ID watermark %d at or below max item ID %d", rec.NextID, prev)
	}

	d := &Dataset{opts: opts}
	d.nextID.Store(rec.NextID)
	var bases []SpatialIndex
	if len(rec.Items) > 0 {
		if len(rec.Indexes) != len(opts.Contenders) {
			return nil, fmt.Errorf("engine: thaw: %d index records for %d contenders",
				len(rec.Indexes), len(opts.Contenders))
		}
		local := make([]rtree.Item, len(rec.Items))
		for l, it := range rec.Items {
			local[l] = rtree.Item{Box: it.Box, ID: int32(l)}
		}
		bases = make([]SpatialIndex, len(opts.Contenders))
		for i, name := range opts.Contenders {
			if rec.Indexes[i].Name != name {
				return nil, fmt.Errorf("engine: thaw: index record %d is %q, want %q", i, rec.Indexes[i].Name, name)
			}
			if bases[i], err = thawIndex(&rec.Indexes[i], local, opts); err != nil {
				return nil, err
			}
		}
	}
	d.cur = newSnapshot(int(rec.Epoch), d.opts, rec.Items, bases)
	return d, nil
}

// DurableDataset binds a Dataset to an on-disk directory: every Commit's
// batch is WAL-logged and fsynced before its epoch publishes, Checkpoint
// folds the overlay into a fresh snapshot + page file generation installed by
// an atomic manifest rename, and OpenDataset recovers the last durable epoch.
// All Dataset methods work unchanged; the embedded Dataset is the live one.
type DurableDataset struct {
	*Dataset
	dir string
	man durable.Manifest
	wal *durable.WAL
	// pageFiles are every page file opened over the dataset's lifetime. Old
	// generations stay open after a checkpoint unlinks their path — attached
	// segment sources may still serve pinned readers — and close with the
	// dataset.
	pageFiles []*durable.PageFile
}

func stateFileNames(epoch uint64) (snap, pages, wal string) {
	return fmt.Sprintf("snap-%d.nss", epoch),
		fmt.Sprintf("pages-%d.nsp", epoch),
		fmt.Sprintf("wal-%d.nsl", epoch)
}

// CreateDataset builds a new dataset over items (dense IDs, as NewDataset)
// and persists its initial epoch in dir. It refuses to overwrite an existing
// dataset.
func CreateDataset(dir string, items []rtree.Item, opts DatasetOptions) (*DurableDataset, error) {
	if _, err := os.Stat(filepath.Join(dir, durable.ManifestName)); err == nil {
		return nil, fmt.Errorf("engine: dataset already exists in %s", dir)
	}
	d, err := NewDataset(items, opts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: create dataset dir: %w", err)
	}
	dd := &DurableDataset{Dataset: d, dir: dir}
	d.writeMu.Lock()
	err = dd.checkpointLocked()
	d.writeMu.Unlock()
	if err != nil {
		return nil, err
	}
	dd.installHook()
	return dd, nil
}

// Manifest returns the currently installed manifest.
func (dd *DurableDataset) Manifest() durable.Manifest { return dd.man }

// PageFiles returns every page file the dataset holds open, newest last. The
// newest one serves the current on-disk generation; tests use its read
// counter as the no-rescan witness.
func (dd *DurableDataset) PageFiles() []*durable.PageFile { return dd.pageFiles }

// installHook wires Commit to the WAL: the batch record must be on disk
// before the epoch publishes. It runs under writeMu (Commit holds it), which
// is also what serializes it against Checkpoint's WAL swap.
func (dd *DurableDataset) installHook() {
	dd.Dataset.onCommit = func(epoch uint64, ops []txOp) error {
		rec := durable.Record{Epoch: epoch, Ops: make([]durable.Op, len(ops))}
		for i, op := range ops {
			rec.Ops[i] = durable.Op{Kind: walKind(op.kind), ID: op.id, Box: op.box}
		}
		return dd.wal.Append(rec)
	}
}

func walKind(k opKind) uint8 {
	switch k {
	case opInsert:
		return durable.OpInsert
	case opDelete:
		return durable.OpDelete
	default:
		return durable.OpUpdate
	}
}

func engineKind(k uint8) (opKind, error) {
	switch k {
	case durable.OpInsert:
		return opInsert, nil
	case durable.OpDelete:
		return opDelete, nil
	case durable.OpUpdate:
		return opUpdate, nil
	}
	return 0, fmt.Errorf("engine: wal replay: unknown op kind %d", k)
}

// Checkpoint folds the overlay down (via the normal compaction path) and
// installs the compacted epoch as the new durable generation: snapshot, page
// file and a fresh empty WAL, made current by an atomic manifest rename. The
// superseded generation's files are then deleted best-effort — recovery never
// looks at anything the manifest does not name. A checkpoint at the already
// durable epoch is a no-op.
func (dd *DurableDataset) Checkpoint() error {
	d := dd.Dataset
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if _, err := d.compactUnderWrite(true); err != nil {
		return err
	}
	if uint64(d.Current().epoch) == dd.man.Epoch {
		return nil // nothing committed since the last checkpoint
	}
	return dd.checkpointLocked()
}

// checkpointLocked writes the current (compacted) snapshot as a new durable
// generation, first building, in one parallel pass, every contender the
// compaction that published it deferred. Caller holds writeMu, so no commit can
// interleave between the state capture and the WAL swap.
func (dd *DurableDataset) checkpointLocked() error {
	d := dd.Dataset
	snap := d.Current()
	bases, err := snap.builtBases()
	if err != nil {
		return err
	}
	rec, err := d.freezeSnapshot(snap, bases)
	if err != nil {
		return err
	}
	snapName, pagesName, walName := stateFileNames(rec.Epoch)
	if err := durable.WriteSnapshot(filepath.Join(dd.dir, snapName), rec); err != nil {
		return err
	}
	var segs []durable.Segment
	if bases != nil {
		for i, name := range d.opts.Contenders {
			pg, ok := bases[i].(Paged)
			if !ok || pg.Store() == nil {
				continue
			}
			segs = append(segs, durable.Segment{Name: name, Store: pg.Store()})
		}
	}
	if err := durable.WritePageFile(filepath.Join(dd.dir, pagesName), segs); err != nil {
		return err
	}
	w, err := durable.CreateWAL(filepath.Join(dd.dir, walName), rec.Epoch)
	if err != nil {
		return err
	}
	durable.MaybeCrash(durable.CrashCheckpointFiles)
	m := durable.Manifest{Epoch: rec.Epoch, NextID: rec.NextID,
		Snapshot: snapName, Pages: pagesName, WAL: walName}
	if err := durable.WriteManifest(dd.dir, m); err != nil {
		w.Close()
		return err
	}
	durable.MaybeCrash(durable.CrashCheckpointRenamed)
	old := dd.man
	if dd.wal != nil {
		dd.wal.Close()
	}
	dd.wal, dd.man = w, m
	if old.Snapshot != "" {
		// Best-effort: a crash here leaves stale files recovery ignores.
		os.Remove(filepath.Join(dd.dir, old.Snapshot))
		os.Remove(filepath.Join(dd.dir, old.Pages))
		os.Remove(filepath.Join(dd.dir, old.WAL))
	}
	return nil
}

// OpenDataset recovers the dataset in dir at its last durable epoch: the
// manifest's snapshot is thawed (linear reconstruction, no re-indexing — the
// page file's read counter stays at zero through open), each contender is
// attached to its on-disk page segment so cold reads come from disk, and the
// WAL's committed batches are replayed through the normal commit path.
func OpenDataset(dir string) (*DurableDataset, error) {
	m, err := durable.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	rec, err := durable.ReadSnapshot(filepath.Join(dir, m.Snapshot))
	if err != nil {
		return nil, err
	}
	if rec.Epoch != m.Epoch {
		return nil, fmt.Errorf("engine: snapshot epoch %d does not match manifest epoch %d", rec.Epoch, m.Epoch)
	}
	if rec.NextID != m.NextID {
		return nil, fmt.Errorf("engine: snapshot ID watermark %d does not match manifest %d", rec.NextID, m.NextID)
	}
	d, err := thawDataset(rec)
	if err != nil {
		return nil, err
	}
	pf, err := durable.OpenPageFile(filepath.Join(dir, m.Pages))
	if err != nil {
		return nil, err
	}
	dd := &DurableDataset{Dataset: d, dir: dir, man: m, pageFiles: []*durable.PageFile{pf}}
	snap := d.Current()
	if snap.bases != nil {
		for i, name := range d.opts.Contenders {
			pg, ok := snap.bases[i].(Paged)
			if !ok || pg.Store() == nil {
				continue
			}
			seg, err := pf.Segment(name)
			if err != nil {
				pf.Close()
				return nil, err
			}
			if seg.NumPages() != pg.Store().NumPages() {
				pf.Close()
				return nil, fmt.Errorf("engine: open: segment %q holds %d pages, index expects %d",
					name, seg.NumPages(), pg.Store().NumPages())
			}
			pg.SetSource(seg)
		}
	}
	w, recs, err := durable.OpenWAL(filepath.Join(dir, m.WAL))
	if err != nil {
		pf.Close()
		return nil, err
	}
	if w.BaseEpoch() != m.Epoch {
		w.Close()
		pf.Close()
		return nil, fmt.Errorf("engine: wal base epoch %d does not match manifest epoch %d", w.BaseEpoch(), m.Epoch)
	}
	dd.wal = w
	if err := dd.replay(recs); err != nil {
		w.Close()
		pf.Close()
		return nil, err
	}
	dd.installHook()
	return dd, nil
}

// replay re-applies the WAL's committed batches through the normal commit
// path (the durability hook is not installed yet, so nothing is re-logged).
// Epoch gaps between consecutive records come from unlogged explicit
// compactions — logically no-ops — which replay reproduces by compacting
// until the next record lines up; auto-compactions re-trigger inside Commit
// deterministically and need no catch-up.
func (dd *DurableDataset) replay(recs []durable.Record) error {
	d := dd.Dataset
	for _, rec := range recs {
		for uint64(d.Current().epoch)+1 < rec.Epoch {
			before := d.Current().epoch
			if _, err := d.Compact(); err != nil {
				return fmt.Errorf("engine: wal replay: compaction catch-up toward epoch %d: %w", rec.Epoch, err)
			}
			if d.Current().epoch == before {
				return fmt.Errorf("engine: wal replay: epoch gap before record %d cannot be reproduced (dataset at %d)",
					rec.Epoch, before)
			}
		}
		if uint64(d.Current().epoch)+1 != rec.Epoch {
			return fmt.Errorf("engine: wal replay: record epoch %d out of step with dataset epoch %d",
				rec.Epoch, d.Current().epoch)
		}
		ops := make([]txOp, len(rec.Ops))
		for i, op := range rec.Ops {
			k, err := engineKind(op.Kind)
			if err != nil {
				return err
			}
			ops[i] = txOp{kind: k, id: op.ID, box: op.Box}
			// Recorded IDs are authoritative: Tx.Insert's sequential
			// reallocation would diverge when the original batches were built
			// by interleaved transactions, so replay applies the recorded IDs
			// directly and only advances the allocator watermark past them.
			if k == opInsert && op.ID >= d.nextID.Load() {
				d.nextID.Store(op.ID + 1)
			}
		}
		t := &Tx{ds: d, ops: ops}
		if _, err := t.Commit(); err != nil {
			return fmt.Errorf("engine: wal replay: epoch %d: %w", rec.Epoch, err)
		}
	}
	return nil
}

// Close releases the WAL and every page file. Commits after Close fail;
// queries keep working from memory, but cold reads of not-yet-materialized
// pages will fail — close only after readers are done.
func (dd *DurableDataset) Close() error {
	dd.Dataset.writeMu.Lock()
	defer dd.Dataset.writeMu.Unlock()
	dd.Dataset.onCommit = func(uint64, []txOp) error {
		return fmt.Errorf("engine: dataset is closed")
	}
	var first error
	if dd.wal != nil {
		first = dd.wal.Close()
		dd.wal = nil
	}
	for _, pf := range dd.pageFiles {
		if err := pf.Close(); err != nil && first == nil {
			first = err
		}
	}
	dd.pageFiles = nil
	return first
}
