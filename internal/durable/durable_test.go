package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

func box(x, y, z, s float64) geom.AABB {
	return geom.AABB{Min: geom.Vec{X: x, Y: y, Z: z}, Max: geom.Vec{X: x + s, Y: y + s, Z: z + s}}
}

// typedError reports whether err is one of the package's two typed parse
// errors — the only errors hostile input is allowed to produce.
func typedError(err error) bool {
	var fe *FormatError
	var ce *CorruptError
	return errors.As(err, &fe) || errors.As(err, &ce)
}

// --- WAL ---

func walRecords() []Record {
	return []Record{
		{Epoch: 1, Ops: []Op{
			{Kind: OpInsert, ID: 7, Box: box(1, 2, 3, 0.5)},
			{Kind: OpUpdate, ID: 3, Box: box(-4, 0, 9, 2)},
		}},
		{Epoch: 2, Ops: []Op{{Kind: OpDelete, ID: 7}}},
		// A gap: compactions bump epochs without being logged.
		{Epoch: 5, Ops: []Op{{Kind: OpInsert, ID: 8, Box: box(0, 0, 0, 1)}}},
		{Epoch: 6, Ops: nil}, // empty batches are legal
	}
}

func writeWAL(t *testing.T, path string, baseEpoch uint64, recs []Record) {
	t.Helper()
	w, err := CreateWAL(path, baseEpoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Epoch != want[i].Epoch {
			t.Fatalf("record %d epoch %d, want %d", i, got[i].Epoch, want[i].Epoch)
		}
		if len(got[i].Ops) != len(want[i].Ops) {
			t.Fatalf("record %d has %d ops, want %d", i, len(got[i].Ops), len(want[i].Ops))
		}
		for j, op := range want[i].Ops {
			if got[i].Ops[j] != op {
				t.Fatalf("record %d op %d = %+v, want %+v", i, j, got[i].Ops[j], op)
			}
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	want := walRecords()
	writeWAL(t, path, 0, want)

	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sameRecords(t, recs, want)
	if w.BaseEpoch() != 0 {
		t.Fatalf("base epoch %d, want 0", w.BaseEpoch())
	}
	if w.LastEpoch() != 6 {
		t.Fatalf("last epoch %d, want 6", w.LastEpoch())
	}
	// Appends continue past the recovered tail.
	if err := w.Append(Record{Epoch: 9}); err != nil {
		t.Fatal(err)
	}
	// Non-increasing epochs are rejected.
	if err := w.Append(Record{Epoch: 9}); err == nil {
		t.Fatal("append of repeated epoch succeeded")
	}
	if err := w.Append(Record{Epoch: 4}); err == nil {
		t.Fatal("append of regressed epoch succeeded")
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	want := walRecords()
	writeWAL(t, path, 0, want)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate every possible crash cut inside the last record: each prefix
	// that severs the final frame must recover the earlier records and
	// truncate the tail.
	lastStart := len(clean)
	{
		// Recompute the final frame's start by re-encoding all but the last.
		path2 := filepath.Join(dir, "wal2")
		writeWAL(t, path2, 0, want[:len(want)-1])
		head, err := os.ReadFile(path2)
		if err != nil {
			t.Fatal(err)
		}
		lastStart = len(head)
	}
	for cut := lastStart + 1; cut < len(clean); cut++ {
		torn := filepath.Join(dir, "torn")
		if err := os.WriteFile(torn, clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := OpenWAL(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		sameRecords(t, recs, want[:len(want)-1])
		// The torn bytes are gone: a fresh append then a clean reopen sees
		// the recovered records plus the new one.
		if err := w.Append(Record{Epoch: 7, Ops: []Op{{Kind: OpInsert, ID: 1, Box: box(0, 0, 0, 1)}}}); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		w.Close()
		w2, recs2, err := OpenWAL(torn)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(recs2) != len(want)-1+1 || recs2[len(recs2)-1].Epoch != 7 {
			t.Fatalf("cut %d: reopen saw %d records", cut, len(recs2))
		}
		w2.Close()
	}
}

func TestWALCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	writeWAL(t, path, 0, walRecords())
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the first record (just after its 8-byte frame
	// header): checksum mismatch, not a torn tail.
	bad := append([]byte(nil), clean...)
	bad[walHeaderLen+8] ^= 0x40
	var ce *CorruptError
	if _, _, _, err := DecodeWAL(bad); !errors.As(err, &ce) {
		t.Fatalf("mid-file corruption: got %v, want *CorruptError", err)
	}

	// An epoch regression mid-file is corruption too: hand-craft a frame
	// whose payload checksums fine but whose epoch goes backwards.
	var payload enc
	payload.u64(1) // epoch 1 after records up to epoch 6
	payload.u32(0)
	var frame enc
	frame.u32(uint32(len(payload.b)))
	frame.u32(checksum(payload.b))
	frame.b = append(frame.b, payload.b...)
	regress := append(append([]byte(nil), clean...), frame.b...)
	if _, _, _, err := DecodeWAL(regress); !errors.As(err, &ce) {
		t.Fatalf("epoch regression: got %v, want *CorruptError", err)
	}
}

// --- Manifest ---

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Epoch: 42, NextID: 1000, Snapshot: "snap-42.nss", Pages: "pages-42.nsp", WAL: "wal-42.nsl"}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName+".tmp")); !os.IsNotExist(err) {
		t.Fatal("temp manifest left behind")
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

func TestManifestParseRejectsDamage(t *testing.T) {
	good := EncodeManifest(Manifest{Epoch: 1, NextID: 2, Snapshot: "s", Pages: "p", WAL: "w"})
	cases := map[string][]byte{
		"empty":        nil,
		"truncated":    good[:len(good)-5],
		"bit flip":     append(append([]byte(nil), good[:9]...), append([]byte{good[9] ^ 1}, good[10:]...)...),
		"trailing":     append(append([]byte(nil), good...), 0),
		"wrong magic":  append([]byte{0, 1, 2, 3}, good[4:]...),
		"garbage":      []byte("NSMF but not really a manifest"),
		"empty names":  EncodeManifest(Manifest{Epoch: 1, NextID: 2}),
		"only partial": EncodeManifest(Manifest{Epoch: 1, NextID: 2, Snapshot: "s", Pages: "p"}),
	}
	for name, data := range cases {
		if _, err := ParseManifest(data); err == nil || !typedError(err) {
			t.Errorf("%s: got %v, want typed error", name, err)
		}
	}
}

// --- Page file ---

func buildStore(t *testing.T, capacity int, pages [][]int32) *pager.Store {
	t.Helper()
	b, err := pager.NewBuilder(capacity)
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range pages {
		for _, id := range ids {
			b.Add(id)
		}
		b.FlushPage()
	}
	return b.Build()
}

func TestPageFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages")
	segA := buildStore(t, 4, [][]int32{{1, 2, 3, 4}, {5, 6}, {}})
	segB := buildStore(t, 2, [][]int32{{-1, 9}, {10}})
	if err := WritePageFile(path, []Segment{{Name: "a", Store: segA}, {Name: "b", Store: segB}}); err != nil {
		t.Fatal(err)
	}

	pf, err := OpenPageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if got := pf.Segments(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("segments %v", got)
	}
	if pf.Reads() != 0 {
		t.Fatalf("open issued %d reads, want 0", pf.Reads())
	}
	for name, want := range map[string]*pager.Store{"a": segA, "b": segB} {
		src, err := pf.Segment(name)
		if err != nil {
			t.Fatal(err)
		}
		if src.NumPages() != want.NumPages() {
			t.Fatalf("segment %q has %d pages, want %d", name, src.NumPages(), want.NumPages())
		}
		for p := 0; p < want.NumPages(); p++ {
			got := src.ReadPage(pager.PageID(p))
			exp := want.Page(pager.PageID(p))
			if len(got) != len(exp) {
				t.Fatalf("segment %q page %d has %d ids, want %d", name, p, len(got), len(exp))
			}
			for i := range exp {
				if got[i] != exp[i] {
					t.Fatalf("segment %q page %d id %d = %d, want %d", name, p, i, got[i], exp[i])
				}
			}
		}
	}
	if pf.Reads() != int64(segA.NumPages()+segB.NumPages()) {
		t.Fatalf("%d physical reads for %d pages", pf.Reads(), segA.NumPages()+segB.NumPages())
	}
	// Re-reads are served from materialized frames: no further physical IO.
	src, _ := pf.Segment("a")
	warm, _ := pf.Segment("a")
	before := pf.Reads()
	src.ReadPage(0)
	src.ReadPage(0)
	if pf.Reads() != before+1 {
		t.Fatalf("re-read issued physical IO (%d -> %d)", before, pf.Reads())
	}
	_ = warm
	if _, err := pf.Segment("nope"); err == nil || !typedError(err) {
		t.Fatalf("unknown segment: %v", err)
	}
}

func TestPageFileCorruptSlotPanicsTyped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages")
	seg := buildStore(t, 4, [][]int32{{1, 2, 3, 4}})
	if err := WritePageFile(path, []Segment{{Name: "a", Store: seg}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // last id byte of the only slot
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPageFile(path) // header is intact
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	src, err := pf.Segment("a")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if _, ok := r.(*CorruptError); !ok {
			t.Fatalf("recovered %v (%T), want *CorruptError", r, r)
		}
	}()
	src.ReadPage(0)
	t.Fatal("read of corrupt slot returned")
}

// TestPageFileOutOfRangePanicsTyped reads one page below and one past a
// segment: each panics with a *FormatError, not a runtime index error.
func TestPageFileOutOfRangePanicsTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages")
	if err := WritePageFile(path, []Segment{{Name: "a", Store: buildStore(t, 4, [][]int32{{1, 2}, {3}})}}); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	src, err := pf.Segment("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []pager.PageID{-1, pager.PageID(src.NumPages())} {
		func() {
			defer func() {
				r := recover()
				if _, ok := r.(*FormatError); !ok {
					t.Fatalf("page %d: recovered %v (%T), want *FormatError", id, r, r)
				}
			}()
			src.ReadPage(id)
			t.Fatalf("page %d of %d: read returned", id, src.NumPages())
		}()
	}
	if pf.Reads() != 0 {
		t.Fatalf("out-of-range reads issued %d physical reads", pf.Reads())
	}
}

func TestPageFileHeaderValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages")
	seg := buildStore(t, 2, [][]int32{{1, 2}})
	if err := WritePageFile(path, []Segment{{Name: "a", Store: seg}}); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string][]byte{
		"bad magic":     append([]byte{1, 2, 3, 4}, clean[4:]...),
		"short file":    clean[:8],
		"header flip":   append(append([]byte(nil), clean[:13]...), append([]byte{clean[13] ^ 1}, clean[14:]...)...),
		"size mismatch": clean[:len(clean)-4],
	}
	for name, data := range damage {
		p := filepath.Join(dir, "bad")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenPageFile(p); err == nil || !typedError(err) {
			t.Errorf("%s: got %v, want typed error", name, err)
		}
	}
}

// --- Snapshot ---

func sampleSnapshot() *SnapshotRec {
	return &SnapshotRec{
		Epoch:   3,
		NextID:  12,
		Options: []byte(`{"Contenders":["flat"]}`),
		Items: []rtree.Item{
			{ID: 0, Box: box(0, 0, 0, 1)},
			{ID: 4, Box: box(5, 5, 5, 2)},
		},
		Indexes: []IndexRec{
			{Name: "flat", Order: []int32{0, 4}, GroupLens: []int32{2}},
			{Name: "grid", Meta: []int64{3, 4, 5}},
			{Name: "sharded",
				Order: []int32{0, 4}, GroupLens: []int32{1, 1},
				Bounds: []geom.AABB{box(0, 0, 0, 1), box(5, 5, 5, 2)},
				Subs: []IndexRec{
					{Name: "rtree", Order: []int32{0}, GroupLens: []int32{1}, Meta: []int64{16}},
					{Name: "rtree", Order: []int32{0}, GroupLens: []int32{1}, Meta: []int64{16}},
				}},
		},
	}
}

func sameIndexRec(t *testing.T, got, want *IndexRec, path string) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("%s: name %q, want %q", path, got.Name, want.Name)
	}
	if len(got.Order) != len(want.Order) || len(got.GroupLens) != len(want.GroupLens) ||
		len(got.Meta) != len(want.Meta) || len(got.Bounds) != len(want.Bounds) || len(got.Subs) != len(want.Subs) {
		t.Fatalf("%s: shape mismatch", path)
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			t.Fatalf("%s: order[%d]", path, i)
		}
	}
	for i := range want.GroupLens {
		if got.GroupLens[i] != want.GroupLens[i] {
			t.Fatalf("%s: lens[%d]", path, i)
		}
	}
	for i := range want.Meta {
		if got.Meta[i] != want.Meta[i] {
			t.Fatalf("%s: meta[%d]", path, i)
		}
	}
	for i := range want.Bounds {
		if got.Bounds[i] != want.Bounds[i] {
			t.Fatalf("%s: bounds[%d]", path, i)
		}
	}
	for i := range want.Subs {
		sameIndexRec(t, &got.Subs[i], &want.Subs[i], path+".sub")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	want := sampleSnapshot()
	if err := WriteSnapshot(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != want.Epoch || got.NextID != want.NextID || string(got.Options) != string(want.Options) {
		t.Fatalf("header fields diverge: %+v", got)
	}
	if len(got.Items) != len(want.Items) {
		t.Fatalf("%d items, want %d", len(got.Items), len(want.Items))
	}
	for i := range want.Items {
		if got.Items[i] != want.Items[i] {
			t.Fatalf("item %d = %+v, want %+v", i, got.Items[i], want.Items[i])
		}
	}
	if len(got.Indexes) != len(want.Indexes) {
		t.Fatalf("%d indexes, want %d", len(got.Indexes), len(want.Indexes))
	}
	for i := range want.Indexes {
		sameIndexRec(t, &got.Indexes[i], &want.Indexes[i], want.Indexes[i].Name)
	}
}

func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	good := EncodeSnapshot(sampleSnapshot())
	for cut := 0; cut < len(good); cut += 7 {
		if _, err := DecodeSnapshot(good[:cut]); err == nil || !typedError(err) {
			t.Fatalf("truncation at %d: got %v, want typed error", cut, err)
		}
	}
	for off := 0; off < len(good); off += 11 {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x10
		if _, err := DecodeSnapshot(bad); err == nil || !typedError(err) {
			t.Fatalf("bit flip at %d: got %v, want typed error", off, err)
		}
	}
}

// --- Crash plan ---

func TestSetCrashPoint(t *testing.T) {
	defer SetCrashPoint("")
	for _, bad := range []string{"wal-synced", "wal-synced:0", "wal-synced:x", "nope:1", ":1", "wal-synced:"} {
		if err := SetCrashPoint(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if err := SetCrashPoint("wal-synced:3"); err != nil {
		t.Fatal(err)
	}
	if shouldCrash(CrashWALAppend) {
		t.Fatal("wrong point fired")
	}
	if shouldCrash(CrashWALSynced) || shouldCrash(CrashWALSynced) {
		t.Fatal("fired before the armed hit count")
	}
	if !shouldCrash(CrashWALSynced) {
		t.Fatal("did not fire at the armed hit count")
	}
	if shouldCrash(CrashWALSynced) {
		t.Fatal("fired twice")
	}
	if err := SetCrashPoint(""); err != nil {
		t.Fatal(err)
	}
	if shouldCrash(CrashWALSynced) {
		t.Fatal("fired after disarm")
	}
}
