package core

import (
	"reflect"
	"testing"

	"neurospatial/internal/circuit"
	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

func storePages(st *pager.Store) [][]int32 {
	pages := make([][]int32, st.NumPages())
	for p := range pages {
		pages[p] = st.Page(pager.PageID(p))
	}
	return pages
}

// TestModelIndexesAreTheDatasetBases: NewModel builds each contender once,
// through the dataset, and each is the index a fresh Build over the
// elements gives, page for page.
func TestModelIndexesAreTheDatasetBases(t *testing.T) {
	m := tinyModel(t, 24)
	bases := m.Dataset.Current().Bases()
	if got := bases[0].(*engine.Flat).Inner(); m.Flat != got {
		t.Fatal("Model.Flat is not the dataset's epoch-0 FLAT base")
	}
	items := make([]rtree.Item, len(m.Circuit.Elements))
	for i := range m.Circuit.Elements {
		items[i] = rtree.Item{Box: m.Circuit.Elements[i].Bounds(), ID: m.Circuit.Elements[i].ID}
	}
	opts := DefaultOptions()
	fresh := []engine.SpatialIndex{
		engine.NewFlat(opts.Flat),
		engine.NewRTree(opts.Flat.PageSize),
		engine.NewGrid(engine.GridOptions{PageSize: opts.Flat.PageSize}),
		engine.NewSharded(engine.ShardedOptions{Flat: opts.Flat}),
	}
	if len(bases) != len(fresh) {
		t.Fatalf("dataset has %d contenders, want %d", len(bases), len(fresh))
	}
	for i := range fresh {
		ix, err := m.EngineIndex(fresh[i].Name())
		if err != nil {
			t.Fatal(err)
		}
		if ix != bases[i] {
			t.Errorf("engine contender %d (%s) is not the dataset's base", i, ix.Name())
		}
		if err := fresh[i].Build(items); err != nil {
			t.Fatal(err)
		}
		want := storePages(fresh[i].(engine.Paged).Store())
		if have := storePages(ix.(engine.Paged).Store()); !reflect.DeepEqual(have, want) {
			t.Errorf("%s: pages differ from a fresh Build", ix.Name())
		}
	}
}

// BenchmarkNewModel builds the benchmark's tissue-S model: the circuit
// (256 layered neurons, ≈76k elements, every core), then its four indexes.
func BenchmarkNewModel(b *testing.B) {
	p := circuit.DefaultParams()
	p.Neurons = 256
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(400, 400, 400))
	p.Layers = circuit.CorticalLayers()
	p.Workers = -1
	b.Run("circuit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := circuit.Build(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	c := circuit.MustBuild(p)
	b.Run("indexes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewModel(c, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
