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
	"testing"

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
