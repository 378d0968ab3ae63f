package engine_test

import (
	"math/rand"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// TestDatasetStatsRebuildTimes reads the rebuild's cost where an operator
// would: per-contender build times after NewDataset and after a compaction,
// and the compaction's own wall time.
func TestDatasetStatsRebuildTimes(t *testing.T) {
	items := testItems(t, 6, 7021)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	contenders := []string{"flat", "rtree", "sharded"}
	ds, err := engine.NewDataset(items, engine.DatasetOptions{Contenders: contenders, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, st engine.DatasetStats) {
		t.Helper()
		for i, took := range st.BuildTimes {
			if (i < len(contenders)) != (took > 0) {
				t.Fatalf("%s: BuildTimes %v for contenders %v", when, st.BuildTimes, contenders)
			}
		}
	}
	st := ds.Stats()
	check("after NewDataset", st)
	if st.LastCompaction != 0 {
		t.Fatalf("LastCompaction %v before any compaction", st.LastCompaction)
	}

	tx := ds.Begin()
	growNeuron(rand.New(rand.NewSource(7021)), tx, vol, 200)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := ds.Stats(); got.BuildTimes != st.BuildTimes || got.LastCompaction != 0 {
		t.Fatalf("a commit moved the rebuild times: %+v -> %+v", st, got)
	}
	if _, err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	after := ds.Stats()
	check("after Compact", after)
	if after.LastCompaction <= 0 || after.Compactions != 1 {
		t.Fatalf("after Compact: LastCompaction %v, Compactions %d", after.LastCompaction, after.Compactions)
	}
	// The wall time covers every build, though on several workers not their sum.
	for _, took := range after.BuildTimes {
		if took > after.LastCompaction {
			t.Fatalf("a build (%v) outlasted the compaction it is part of (%v)", took, after.LastCompaction)
		}
	}
}

// BenchmarkDatasetCompact is the stall a committer feels when its batch
// crosses CompactRatio: one neuron-sized batch lands on a tissue-S-sized
// dataset with all four contenders, and the overlay is folded. The previous
// iteration's neuron is deleted in the same batch, so the live set stays put.
func BenchmarkDatasetCompact(b *testing.B) {
	const elements, neuron = 76000, 593
	vol := geom.Box(geom.V(0, 0, 0), geom.V(300, 300, 300))
	rng := rand.New(rand.NewSource(1))
	items := make([]rtree.Item, elements)
	for i := range items {
		items[i] = rtree.Item{Box: randBox(rng, vol), ID: int32(i)}
	}
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders:         []string{"flat", "rtree", "grid", "sharded"},
		DisableAutoCompact: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	var prev []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := ds.Begin()
		for _, id := range prev {
			tx.Delete(id)
		}
		prev = prev[:0]
		for j := 0; j < neuron; j++ {
			prev = append(prev, tx.Insert(randBox(rng, vol)))
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if _, err := ds.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := ds.Stats()
	for i, name := range []string{"flat", "rtree", "grid", "sharded"} {
		b.ReportMetric(float64(st.BuildTimes[i].Microseconds())/1e3, name+"-ms")
	}
}
