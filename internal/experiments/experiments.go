// Package experiments implements the reproduction harness: one runner per
// table/figure of the paper. Each runner generates its workload, executes
// every contender, and returns typed rows plus a rendered table; the cmd/
// drivers print them and the repository-level benchmarks wrap them in
// testing.B loops.
//
// The experiments:
//
//	E1 — Fig. 2+3: FLAT vs R-tree range-query cost across data density.
//	E2 — Fig. 4:   FLAT seed walk and page reads vs result size; R-tree
//	               per-level node reads.
//	E3 — Fig. 5:   SCOUT candidate-set pruning along a walkthrough.
//	E4 — Fig. 6:   walkthrough speedup per prefetching method.
//	E5 — Fig. 7:   synapse join: time / memory / comparisons per algorithm.
//	E6 — §1 scaling narrative: index build and query cost vs dataset size.
package experiments

import (
	"context"
	"fmt"
	"time"

	"neurospatial/internal/circuit"
	"neurospatial/internal/core"
	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
	"neurospatial/internal/stats"
)

// buildModel constructs the standard experiment circuit: neurons cells in a
// cube of the given edge, indexed with default options. workers follows the
// repository-wide convention verbatim (0 or 1 serial, > 1 that many,
// negative one per CPU); builds are seed-deterministic for any value, and
// the Default* configs select -1.
func buildModel(neurons int, edge float64, seed int64, workers int) (*core.Model, error) {
	p := circuit.DefaultParams()
	p.Neurons = neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(edge, edge, edge))
	p.Seed = seed
	p.Workers = workers
	return core.BuildModel(p, core.DefaultOptions())
}

// buildLayeredModel is buildModel with the cortical layer profile, the
// skewed-density regime of real tissue.
func buildLayeredModel(neurons int, edge float64, seed int64, workers int) (*core.Model, error) {
	p := circuit.DefaultParams()
	p.Neurons = neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(edge, edge, edge))
	p.Layers = circuit.CorticalLayers()
	p.Seed = seed
	p.Workers = workers
	return core.BuildModel(p, core.DefaultOptions())
}

// centerQueries returns n deterministic query boxes of the given half-extent
// scattered around the middle of the volume (where walkover effects from the
// boundary are smallest).
func centerQueries(vol geom.AABB, n int, radius float64, seed int64) []geom.AABB {
	rng := newRand(seed)
	c := vol.Center()
	span := vol.Size().Scale(0.25)
	out := make([]geom.AABB, n)
	for i := range out {
		p := geom.V(
			c.X+(rng.Float64()*2-1)*span.X,
			c.Y+(rng.Float64()*2-1)*span.Y,
			c.Z+(rng.Float64()*2-1)*span.Z,
		)
		out[i] = geom.BoxAround(p, radius)
	}
	return out
}

// E1Config parameterizes the density experiment.
type E1Config struct {
	// Densities lists the neuron counts; the volume stays fixed so element
	// density scales with them.
	Densities []int
	// Edge is the cubic volume edge in µm.
	Edge float64
	// QueryRadius is the query half-extent in µm.
	QueryRadius float64
	// Queries is the number of queries averaged per density.
	Queries int
	// Seed drives circuit construction and query placement.
	Seed int64
	// Workers is the circuit-construction worker count, with the
	// repository-wide semantics (0 or 1 serial, > 1 that many workers,
	// negative one per CPU). Results are worker-count-invariant; the
	// Default* configs select -1.
	Workers int
}

// DefaultE1 returns the configuration cmd/flatbench runs.
func DefaultE1() E1Config {
	return E1Config{
		Densities:   []int{16, 32, 64, 128, 256},
		Edge:        300,
		QueryRadius: 25,
		Queries:     20,
		Seed:        1,
		Workers:     -1,
	}
}

// E1Row is one density point of experiment E1.
type E1Row struct {
	// Neurons is the cell count of this density step.
	Neurons int
	// Elements is the resulting segment count.
	Elements int
	// Density is elements per µm³.
	Density float64
	// Results is the mean result size per query.
	Results float64
	// FlatPages is FLAT's mean data-page reads per query. These are the disk
	// reads: FLAT's only per-element storage is the data
	// pages.
	FlatPages float64
	// FlatSeed is FLAT's mean seed-tree node accesses per query: the nodes
	// of the one walk that names the pages to read. The seed tree indexes *pages*, so it is ~page
	// size× smaller than an element-level R-tree and RAM-resident at any
	// realistic scale (at the paper's 10⁸-element models the element tree
	// is tens of GB while the page tree fits in memory); the accesses are
	// reported but are not disk I/O.
	FlatSeed float64
	// RTreeSTRReads is the STR-bulk-loaded element-level R-tree's mean node
	// reads; every node of the element tree is a disk page.
	RTreeSTRReads float64
	// RTreeDynReads is the insertion-built R-tree's mean node reads — the
	// degradation mode models under construction suffer (neurons are added
	// incrementally while the model is built).
	RTreeDynReads float64
	// FlatPerResult and RTreeSTRPerResult normalize disk reads by result
	// size: the paper's density-independence claim is that FLAT's value
	// stays flat while the R-tree's grows with density.
	FlatPerResult, RTreeSTRPerResult, RTreeDynPerResult float64
	// FlatTime and RTreeTime are mean wall-clock execution times.
	FlatTime, RTreeTime time.Duration
}

// RunE1 executes the density sweep. All contenders run through the engine
// layer: FLAT and the STR R-tree via the model's CompareRangeQuery, and the
// insertion-built comparator tree wrapped as one more engine configuration.
func RunE1(cfg E1Config) ([]E1Row, error) {
	var rows []E1Row
	for _, n := range cfg.Densities {
		m, err := buildModel(n, cfg.Edge, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: E1 density %d: %w", n, err)
		}
		// Insertion-built comparator tree with the same fanout, wrapped as
		// an engine contender after the mutation phase ends.
		dynTree, err := rtree.New(m.Flat.Store().Capacity())
		if err != nil {
			return nil, err
		}
		for i := range m.Circuit.Elements {
			dynTree.Insert(rtree.Item{Box: m.Circuit.Elements[i].Bounds(), ID: m.Circuit.Elements[i].ID})
		}
		dyn, err := engine.WrapRTree(dynTree)
		if err != nil {
			return nil, err
		}

		queries := centerQueries(m.Circuit.Params.Volume, cfg.Queries, cfg.QueryRadius, cfg.Seed+int64(n))
		row := E1Row{
			Neurons:  n,
			Elements: len(m.Circuit.Elements),
			Density:  m.Circuit.Density(),
		}
		for _, q := range queries {
			cmp := m.CompareRangeQuery(q)
			row.Results += float64(cmp.Results)
			row.FlatPages += float64(cmp.FlatStats.PagesRead)
			row.FlatSeed += float64(cmp.FlatStats.IndexReads)
			row.RTreeSTRReads += float64(cmp.RTreeStats.PagesRead)
			row.FlatTime += cmp.FlatTime
			row.RTreeTime += cmp.RTreeTime
			dynStats, err := dyn.Do(context.Background(), engine.RangeRequest(q), nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: E1 dynamic-tree query: %w", err)
			}
			row.RTreeDynReads += float64(dynStats.PagesRead)
		}
		k := float64(len(queries))
		row.Results /= k
		row.FlatPages /= k
		row.FlatSeed /= k
		row.RTreeSTRReads /= k
		row.RTreeDynReads /= k
		row.FlatTime /= time.Duration(len(queries))
		row.RTreeTime /= time.Duration(len(queries))
		if row.Results > 0 {
			// Per-1000-results normalization keeps the numbers readable.
			row.FlatPerResult = 1000 * row.FlatPages / row.Results
			row.RTreeSTRPerResult = 1000 * row.RTreeSTRReads / row.Results
			row.RTreeDynPerResult = 1000 * row.RTreeDynReads / row.Results
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E1Table renders the rows.
func E1Table(rows []E1Row) *stats.Table {
	tb := stats.NewTable("E1 (Fig. 2+3): range-query disk reads vs density, fixed 50 µm queries"+
		"\n(FLAT seed accesses hit the RAM-resident page tree and are listed separately)",
		"neurons", "elements", "density", "results", "FLAT pages", "FLAT seed", "R-tree(STR)", "R-tree(dyn)",
		"FLAT/1k res", "STR/1k res", "dyn/1k res")
	for _, r := range rows {
		tb.AddRow(
			r.Neurons,
			r.Elements,
			fmt.Sprintf("%.4f", r.Density),
			fmt.Sprintf("%.0f", r.Results),
			fmt.Sprintf("%.1f", r.FlatPages),
			fmt.Sprintf("%.1f", r.FlatSeed),
			fmt.Sprintf("%.1f", r.RTreeSTRReads),
			fmt.Sprintf("%.1f", r.RTreeDynReads),
			fmt.Sprintf("%.1f", r.FlatPerResult),
			fmt.Sprintf("%.1f", r.RTreeSTRPerResult),
			fmt.Sprintf("%.1f", r.RTreeDynPerResult),
		)
	}
	return tb
}

// E2Config parameterizes the result-size experiment.
type E2Config struct {
	// Neurons is the model size.
	Neurons int
	// Edge is the volume edge.
	Edge float64
	// Radii is the sweep of query half-extents.
	Radii []float64
	// Seed drives construction.
	Seed int64
	// Workers is the circuit-construction worker count (repository-wide
	// semantics; the Default* configs select -1).
	Workers int
}

// DefaultE2 returns the configuration cmd/flatbench runs.
func DefaultE2() E2Config {
	return E2Config{Neurons: 128, Edge: 300, Radii: []float64{5, 10, 20, 40, 80}, Seed: 2, Workers: -1}
}

// E2Row is one query-size point of experiment E2.
type E2Row struct {
	// Radius is the query half-extent.
	Radius float64
	// Results is the result size.
	Results int64
	// SeedReads is the seed-directory nodes FLAT's walk visited.
	SeedReads int64
	// Pages is FLAT's data-page reads: the pages the walk named.
	Pages int64
	// RTreePerLevel is the R-tree's node accesses per level, leaves first.
	RTreePerLevel []int64
}

// RunE2 executes the result-size experiment: one model, growing queries at the
// center, both contenders queried through the engine layer.
func RunE2(cfg E2Config) ([]E2Row, error) {
	m, err := buildModel(cfg.Neurons, cfg.Edge, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: E2: %w", err)
	}
	eflat, err := m.EngineIndex("flat")
	if err != nil {
		return nil, fmt.Errorf("experiments: E2: %w", err)
	}
	ertree, err := m.EngineIndex("rtree")
	if err != nil {
		return nil, fmt.Errorf("experiments: E2: %w", err)
	}
	center := m.Circuit.Params.Volume.Center()
	ctx := context.Background()
	var rows []E2Row
	for _, r := range cfg.Radii {
		q := geom.BoxAround(center, r)
		fs, err := eflat.Do(ctx, engine.RangeRequest(q), nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: E2 FLAT query: %w", err)
		}
		ts, err := ertree.Do(ctx, engine.RangeRequest(q), nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: E2 R-tree query: %w", err)
		}
		rows = append(rows, E2Row{
			Radius:        r,
			Results:       fs.Results,
			SeedReads:     fs.IndexReads,
			Pages:         fs.PagesRead,
			RTreePerLevel: ts.NodesPerLevel(),
		})
	}
	return rows, nil
}

// E2Table renders the rows.
func E2Table(rows []E2Row) *stats.Table {
	tb := stats.NewTable("E2 (Fig. 4): FLAT seed walk and page reads vs result size; R-tree reads per level",
		"radius", "results", "seed reads", "pages", "pages/1k res", "R-tree per-level (leaf..root)")
	for _, r := range rows {
		perRes := "-"
		if r.Results > 0 {
			perRes = fmt.Sprintf("%.1f", 1000*float64(r.Pages)/float64(r.Results))
		}
		tb.AddRow(
			r.Radius,
			r.Results,
			r.SeedReads,
			r.Pages,
			perRes,
			fmt.Sprintf("%v", r.RTreePerLevel),
		)
	}
	return tb
}
