package bench

// Cross-module integration tests: these exercise the full pipeline the demo
// tool runs — generate tissue, serialize it, index it, query it with every
// engine, explore it with every prefetcher, join it with every algorithm —
// and check that all paths agree with each other and with brute-force
// oracles.

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"neurospatial/internal/circuit"
	"neurospatial/internal/core"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/grid"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

func integrationModel(t *testing.T) *core.Model {
	t.Helper()
	p := circuit.DefaultParams()
	p.Neurons = 24
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(250, 250, 250))
	p.Layers = circuit.CorticalLayers()
	p.Seed = 99
	m, err := core.BuildModel(p, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestIntegrationQueryEnginesAgree runs the same queries through FLAT, the
// R-tree, a uniform grid and the brute-force oracle.
func TestIntegrationQueryEnginesAgree(t *testing.T) {
	m := integrationModel(t)
	boxes := make([]geom.AABB, len(m.Circuit.Elements))
	for i := range m.Circuit.Elements {
		boxes[i] = m.Circuit.Elements[i].Bounds()
	}
	g, err := grid.NewAuto(m.Circuit.Bounds, boxes, 8)
	if err != nil {
		t.Fatal(err)
	}
	queries := []geom.AABB{
		geom.BoxAround(geom.V(125, 125, 125), 30),
		geom.BoxAround(geom.V(50, 200, 80), 45),
		geom.BoxAround(geom.V(240, 20, 240), 25),
		geom.BoxAround(geom.V(125, 10, 125), 60), // dense bottom layer
		geom.BoxAround(geom.V(-40, -40, -40), 40),
	}
	tree := modelTree(t, m)
	for qi, q := range queries {
		flatIDs := map[int32]bool{}
		m.Flat.Query(q, nil, func(id int32) { flatIDs[id] = true })
		treeIDs := map[int32]bool{}
		tree.Query(q, func(it rtree.Item) { treeIDs[it.ID] = true })
		gridIDs := map[int32]bool{}
		g.Query(q, func(i int32) { gridIDs[m.Circuit.Elements[i].ID] = true })

		for i := range boxes {
			want := boxes[i].Intersects(q)
			id := m.Circuit.Elements[i].ID
			if flatIDs[id] != want {
				t.Fatalf("query %d: FLAT wrong for element %d", qi, id)
			}
			if treeIDs[id] != want {
				t.Fatalf("query %d: R-tree wrong for element %d", qi, id)
			}
			if gridIDs[id] != want {
				t.Fatalf("query %d: grid wrong for element %d", qi, id)
			}
		}
	}
}

// TestIntegrationSerializeRebuildQuery round-trips the circuit through the
// binary format and verifies the rebuilt index answers identically.
func TestIntegrationSerializeRebuildQuery(t *testing.T) {
	m := integrationModel(t)
	var buf bytes.Buffer
	if err := circuit.WriteElements(&buf, m.Circuit.Elements); err != nil {
		t.Fatal(err)
	}
	elems, err := circuit.ReadElements(&buf)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]rtree.Item, len(elems))
	for i := range elems {
		items[i] = rtree.Item{Box: elems[i].Bounds(), ID: elems[i].ID}
	}
	idx, err := flat.Build(items, flat.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := geom.BoxAround(geom.V(125, 125, 125), 40)
	orig := map[int32]bool{}
	m.Flat.Query(q, nil, func(id int32) { orig[id] = true })
	rebuilt := map[int32]bool{}
	idx.Query(q, nil, func(id int32) { rebuilt[id] = true })
	if len(orig) != len(rebuilt) {
		t.Fatalf("rebuilt index: %d vs %d results", len(rebuilt), len(orig))
	}
	for id := range orig {
		if !rebuilt[id] {
			t.Fatalf("rebuilt index missed %d", id)
		}
	}
}

// TestIntegrationExploreConsistency verifies every prefetcher returns
// identical query results and that prefetching never makes latency worse
// with an adequate pool.
func TestIntegrationExploreConsistency(t *testing.T) {
	m := integrationModel(t)
	neuron, branch, _ := m.Circuit.LongestPath()
	cfg := core.ExploreConfig{ThinkTime: 400 * time.Millisecond}
	var baseElems int64 = -1
	var baseLatency time.Duration
	for _, pf := range m.Prefetchers() {
		run, err := m.Explore(neuron, branch, pf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if baseElems == -1 {
			baseElems = run.Elements
			baseLatency = run.Latency
			continue
		}
		if run.Elements != baseElems {
			t.Fatalf("%s returned %d elements, baseline %d", pf.Name(), run.Elements, baseElems)
		}
		if run.Latency > baseLatency {
			t.Errorf("%s latency %v worse than no prefetching %v", pf.Name(), run.Latency, baseLatency)
		}
	}
}

// TestIntegrationJoinAllAlgorithmsOnTissue verifies all five join algorithms
// agree on the synapse workload end to end.
func TestIntegrationJoinAllAlgorithmsOnTissue(t *testing.T) {
	m := integrationModel(t)
	region := geom.BoxAround(geom.V(125, 60, 125), 70) // spans the dense layers
	var base []core.Synapse
	for i, alg := range m.JoinAlgorithms() {
		syn, _ := m.FindSynapses(region, 2.0, alg)
		if i == 0 {
			base = syn
			continue
		}
		if len(syn) != len(base) {
			t.Fatalf("%s: %d synapses, baseline %d", alg.Name(), len(syn), len(base))
		}
		for k := range syn {
			if syn[k] != base[k] {
				t.Fatalf("%s: synapse %d differs", alg.Name(), k)
			}
		}
	}
}

// TestIntegrationDeterminism builds everything twice and compares outputs
// exactly: the whole stack must be reproducible from seeds.
func TestIntegrationDeterminism(t *testing.T) {
	m1 := integrationModel(t)
	m2 := integrationModel(t)
	if len(m1.Circuit.Elements) != len(m2.Circuit.Elements) {
		t.Fatal("circuit sizes differ")
	}
	for i := range m1.Circuit.Elements {
		if m1.Circuit.Elements[i] != m2.Circuit.Elements[i] {
			t.Fatalf("element %d differs between builds", i)
		}
	}
	q := geom.BoxAround(geom.V(100, 40, 100), 35)
	p1, p2 := m1.Flat.PagesInRange(q), m2.Flat.PagesInRange(q)
	if len(p1) == 0 || !slices.Equal(p1, p2) {
		t.Fatalf("page order differs between identical builds: %v vs %v", p1, p2)
	}
	var ids1, ids2 []int32
	m1.Flat.Query(q, nil, func(id int32) { ids1 = append(ids1, id) })
	m2.Flat.Query(q, nil, func(id int32) { ids2 = append(ids2, id) })
	if !slices.Equal(ids1, ids2) {
		t.Fatal("query emission order differs between identical builds")
	}
}

// TestIntegrationPagedQueryWithTinyPool runs FLAT through a pathologically
// small buffer pool and verifies correctness is unaffected by thrashing.
func TestIntegrationPagedQueryWithTinyPool(t *testing.T) {
	m := integrationModel(t)
	pool, err := pager.NewBufferPool(m.Flat.Store(), 2)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.BoxAround(geom.V(125, 60, 125), 50)
	cold := map[int32]bool{}
	m.Flat.Query(q, pool, func(id int32) { cold[id] = true })
	direct := map[int32]bool{}
	m.Flat.Query(q, nil, func(id int32) { direct[id] = true })
	if len(cold) != len(direct) {
		t.Fatalf("thrashing pool changed results: %d vs %d", len(cold), len(direct))
	}
	if pool.Stats().Evictions == 0 {
		t.Error("tiny pool never evicted — test not exercising thrashing")
	}
}
