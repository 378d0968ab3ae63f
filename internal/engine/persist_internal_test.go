package engine

// The no-reindex acceptance test: OpenDataset on a checkpointed million-item
// dataset must serve queries without re-indexing or scanning the store. Three
// witnesses, none derived from index stats: the page file's own physical-read
// counter must be zero through open, a pager.Counting tap spliced between the
// index and its on-disk segment must show a first query reading only a sliver
// of the store, and the same query again must not move the physical counter.

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"neurospatial/internal/durable"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

func TestOpenDatasetMillionNoReindex(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(71))
	items := make([]rtree.Item, n)
	for i := range items {
		p := geom.V(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000)
		items[i] = rtree.Item{ID: int32(i), Box: geom.BoxAround(p, 0.5+rng.Float64())}
	}

	dir := t.TempDir()
	dd, err := CreateDataset(dir, items, DatasetOptions{Contenders: []string{"flat"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dd.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Current().NumItems(); got != n {
		t.Fatalf("reopened dataset holds %d items, want %d", got, n)
	}

	// Witness 1: opening parsed headers only — not one page slot was read.
	pf := re.PageFiles()[len(re.PageFiles())-1]
	if got := pf.Reads(); got != 0 {
		t.Fatalf("open issued %d physical page reads, want 0 (full-store scan?)", got)
	}

	// Witness 2: splice an independent counting tap between the thawed index
	// and its disk segment, then run one small range query cold.
	fl, ok := re.Current().bases[0].(*Flat)
	if !ok {
		t.Fatalf("base 0 is %T, want *Flat", re.Current().bases[0])
	}
	src := fl.Source()
	if _, ok := src.(interface{ NumPages() int }); !ok {
		t.Fatalf("thawed flat is not attached to a disk segment (source %T)", src)
	}
	tap := pager.NewCounting(src)
	fl.SetSource(tap)

	sess, err := Open(WithDataset(re.Dataset), WithIndexName("flat"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	req := RangeRequest(geom.Box(geom.V(100, 100, 100), geom.V(112, 112, 112)))
	res, err := sess.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	var want []Hit
	for _, it := range items {
		if it.Box.Intersects(req.Box) {
			want = append(want, Hit{ID: it.ID})
		}
	}
	if len(res.Hits) != len(want) {
		t.Fatalf("cold query returned %d hits, brute force %d", len(res.Hits), len(want))
	}
	for i := range want {
		if res.Hits[i].ID != want[i].ID {
			t.Fatalf("cold query hit %d is %d, want %d", i, res.Hits[i].ID, want[i].ID)
		}
	}

	total := fl.Store().NumPages()
	reads := tap.Reads()
	if reads == 0 {
		t.Fatal("cold query read no pages through the disk segment")
	}
	if reads >= int64(total)/2 {
		t.Fatalf("cold query read %d of %d pages — the open path degenerated into a scan", reads, total)
	}
	t.Logf("n=%d: cold first query read %d of %d pages", n, reads, total)

	// Witness 3: the frames the cold query faulted in stay resident — the
	// same query again issues no physical read.
	cold := pf.Reads()
	warm, err := sess.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := pf.Reads(); got != cold {
		t.Fatalf("warm query re-read %d pages — the frame cache did not hold", got-cold)
	}
	if len(warm.Hits) != len(res.Hits) {
		t.Fatalf("warm query returned %d hits, cold %d", len(warm.Hits), len(res.Hits))
	}
}

// TestDecodeOptionsRejectsUnknownFields: a snapshot written with an option
// this build lacks fails to thaw, naming the option, instead of opening with
// it dropped; a blob of known fields still decodes.
func TestDecodeOptionsRejectsUnknownFields(t *testing.T) {
	o, err := decodeOptions([]byte(`{"Contenders":["flat"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Contenders) != 1 || o.Contenders[0] != "flat" {
		t.Fatalf("decoded contenders %v, want [flat]", o.Contenders)
	}
	blob, err := encodeOptions(DatasetOptions{Contenders: []string{"flat", "sharded"}, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeOptions(blob); err != nil {
		t.Fatalf("an encoded blob fails to decode: %v", err)
	}
	rec := &durable.SnapshotRec{NextID: 1, Options: []byte(`{"Contenders":["sharded"],"ShardIndex":"rtree"}`)}
	if _, err := thawDataset(rec); err == nil || !strings.Contains(err.Error(), "ShardIndex") {
		t.Fatalf("thaw of a snapshot with an unknown option: error %v, want one naming ShardIndex", err)
	}
	// Every snapshot written while FLAT had a Tolerance option names it (this
	// blob is the default options as such a build encoded them): the open
	// fails and says which option, and the directory must be rebuilt.
	old := []byte(`{"Contenders":["flat"],"Flat":{"PageSize":64,"SeedFanout":16,"Tolerance":0},"RTreeFanout":0,"Grid":{"PageSize":0,"PerCell":0},"Shards":0,"PageSize":64,"CompactRatio":0.25,"CompactMin":64,"DisableAutoCompact":false,"Workers":0,"Bases":null}`)
	if _, err := thawDataset(&durable.SnapshotRec{NextID: 1, Options: old}); err == nil || !strings.Contains(err.Error(), "Tolerance") {
		t.Fatalf("thaw of a snapshot naming Flat.Tolerance: error %v, want one naming Tolerance", err)
	}
	if _, err := decodeOptions([]byte(`{"Contenders":["flat"]} {}`)); err == nil {
		t.Fatal("trailing data after the options object accepted")
	}
}
