package bench

// The differential harness: every join algorithm — serial and parallel —
// must emit exactly the same pair set on the same inputs, and every parallel
// execution path must reproduce its serial output. This is the guarantee the
// parallel layer (internal/parallel) is built around: slot-ordered merges
// make worker count unobservable. NestedLoop is the oracle; its only filter
// is the box test, so any disagreement localizes a bug in the cleverer
// algorithm.

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"testing"

	"neurospatial/internal/circuit"
	"neurospatial/internal/core"
	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/join"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
	"neurospatial/internal/touch"
)

// diffModel builds a small seeded tissue for differential runs. Uniform and
// layered (cortically skewed) variants cover the density regimes that
// separate space-oriented from data-oriented partitioning.
func diffModel(t testing.TB, neurons int, layered bool, seed int64) *core.Model {
	t.Helper()
	p := circuit.DefaultParams()
	p.Neurons = neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(220, 220, 220))
	p.Seed = seed
	p.Workers = -1
	if layered {
		p.Layers = circuit.CorticalLayers()
	}
	m, err := core.BuildModel(p, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// modelItems returns the circuit's elements as index items.
func modelItems(m *core.Model) []rtree.Item {
	items := make([]rtree.Item, len(m.Circuit.Elements))
	for i := range m.Circuit.Elements {
		items[i] = rtree.Item{Box: m.Circuit.Elements[i].Bounds(), ID: m.Circuit.Elements[i].ID}
	}
	return items
}

// modelTree is the direct-call oracle of a model's R-tree contender: the same
// STR build over the circuit's items, at the fanout the model gives the
// contender by default (FLAT's page size).
func modelTree(t testing.TB, m *core.Model) *rtree.Tree {
	t.Helper()
	tr, err := rtree.STR(modelItems(m), m.Flat.Store().Capacity())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func collectPairs(alg join.Algorithm, a, b []join.Object, eps float64) []join.Pair {
	var out []join.Pair
	alg.Join(a, b, eps, func(p join.Pair) { out = append(out, p) })
	return out
}

func sortPairs(ps []join.Pair) []join.Pair {
	out := make([]join.Pair, len(ps))
	copy(out, ps)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func pairsEqual(a, b []join.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestJoinAlgorithmsAgree asserts that NestedLoop, SweepLine, PBSM, S3 and
// TOUCH — each in serial and, where supported, parallel form — emit
// identical sorted pair sets across eps values on both uniform and skewed
// tissues.
func TestJoinAlgorithmsAgree(t *testing.T) {
	const workers = 4
	for _, tissue := range []struct {
		name    string
		layered bool
		seed    int64
	}{
		{name: "uniform", layered: false, seed: 101},
		{name: "layered", layered: true, seed: 202},
	} {
		t.Run(tissue.name, func(t *testing.T) {
			m := diffModel(t, 10, tissue.layered, tissue.seed)
			axons, dendrites := m.SynapseInputs(m.Circuit.Bounds)
			if len(axons) == 0 || len(dendrites) == 0 {
				t.Fatalf("degenerate tissue: %d axons, %d dendrites", len(axons), len(dendrites))
			}
			algs := []join.Algorithm{
				join.NestedLoop{},
				join.SweepLine{},
				join.PBSM{},
				join.PBSM{Workers: workers},
				join.PBSM{PerCell: 4, Workers: workers},
				join.S3{},
				join.S3{Workers: workers},
				&touch.Touch{},
				&touch.Touch{Opts: touch.Options{Workers: workers}},
			}
			names := []string{
				"NestedLoop", "SweepLine",
				"PBSM", "PBSM-par", "PBSM-fine-par",
				"S3", "S3-par",
				"TOUCH", "TOUCH-par",
			}
			for _, eps := range []float64{0.5, 2.0, 5.0} {
				oracle := sortPairs(collectPairs(algs[0], axons, dendrites, eps))
				if eps >= 2.0 && len(oracle) == 0 {
					t.Errorf("eps=%v: oracle found no pairs — workload degenerate", eps)
				}
				for i, alg := range algs[1:] {
					got := sortPairs(collectPairs(alg, axons, dendrites, eps))
					if !pairsEqual(got, oracle) {
						t.Errorf("eps=%v: %s emitted %d pairs, oracle %d (or content differs)",
							eps, names[i+1], len(got), len(oracle))
					}
				}
			}
		})
	}
}

// TestParallelJoinOrderMatchesSerial asserts the stronger property the
// parallel layer promises: not just the same pair *set* but the same
// emission *sequence* as the serial run, for several worker counts.
func TestParallelJoinOrderMatchesSerial(t *testing.T) {
	m := diffModel(t, 10, true, 303)
	axons, dendrites := m.SynapseInputs(m.Circuit.Bounds)
	const eps = 2.0
	for _, tc := range []struct {
		name     string
		serial   join.Algorithm
		parallel func(workers int) join.Algorithm
	}{
		{
			name:   "PBSM",
			serial: join.PBSM{},
			parallel: func(w int) join.Algorithm {
				return join.PBSM{Workers: w}
			},
		},
		{
			name:   "S3",
			serial: join.S3{},
			parallel: func(w int) join.Algorithm {
				return join.S3{Workers: w}
			},
		},
		{
			name:   "TOUCH",
			serial: &touch.Touch{},
			parallel: func(w int) join.Algorithm {
				return &touch.Touch{Opts: touch.Options{Workers: w}}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := collectPairs(tc.serial, axons, dendrites, eps)
			if len(want) == 0 {
				t.Fatal("serial run found no pairs — workload degenerate")
			}
			for _, w := range []int{2, 3, 8} {
				got := collectPairs(tc.parallel(w), axons, dendrites, eps)
				if !pairsEqual(got, want) {
					t.Errorf("workers=%d: emission sequence diverged from serial "+
						"(%d pairs vs %d)", w, len(got), len(want))
				}
			}
		})
	}
}

// TestS3ParallelStatsMatchSerial pins down the S3 design point that the
// frontier expansion performs exactly the recursion's pruning: all counters,
// not just results, are worker-count independent.
func TestS3ParallelStatsMatchSerial(t *testing.T) {
	m := diffModel(t, 8, false, 404)
	axons, dendrites := m.SynapseInputs(m.Circuit.Bounds)
	serial := join.S3{}.Join(axons, dendrites, 2.0, func(join.Pair) {})
	for _, w := range []int{2, 4} {
		par := join.S3{Workers: w}.Join(axons, dendrites, 2.0, func(join.Pair) {})
		if par.NodePairs != serial.NodePairs || par.BoxTests != serial.BoxTests ||
			par.Comparisons != serial.Comparisons || par.Results != serial.Results {
			t.Errorf("workers=%d: stats diverged: parallel {pairs %d tests %d cmps %d res %d} "+
				"vs serial {%d %d %d %d}",
				w, par.NodePairs, par.BoxTests, par.Comparisons, par.Results,
				serial.NodePairs, serial.BoxTests, serial.Comparisons, serial.Results)
		}
	}
}

// qhit is one (query, id) pair of a batch's flattened hit stream.
type qhit struct {
	q  int
	id int32
}

// rangeRequests lifts query boxes into Range requests.
func rangeRequests(qs []geom.AABB) []engine.Request {
	reqs := make([]engine.Request, len(qs))
	for i, q := range qs {
		reqs[i] = engine.RangeRequest(q)
	}
	return reqs
}

// doRange runs one Range request through ix.Do and returns the hit IDs (in
// Do's canonical ascending order) with the query's stats.
func doRange(t testing.TB, ix engine.SpatialIndex, q geom.AABB) ([]int32, engine.QueryStats) {
	t.Helper()
	var ids []int32
	st, err := ix.Do(context.Background(), engine.RangeRequest(q), func(h engine.Hit) { ids = append(ids, h.ID) })
	if err != nil {
		t.Fatalf("%s: Do(%v): %v", ix.Name(), q, err)
	}
	return ids, st
}

// serialRange runs the boxes as a serial loop of doRange calls on ix: the
// reference every batched execution must reproduce.
func serialRange(t testing.TB, ix engine.SpatialIndex, qs []geom.AABB) ([]qhit, []engine.QueryStats) {
	t.Helper()
	var hits []qhit
	sts := make([]engine.QueryStats, 0, len(qs))
	for qi, q := range qs {
		ids, st := doRange(t, ix, q)
		for _, id := range ids {
			hits = append(hits, qhit{qi, id})
		}
		sts = append(sts, st)
	}
	return hits, sts
}

// engineIndex returns the model's named epoch-0 contender.
func engineIndex(t testing.TB, m *core.Model, name string) engine.SpatialIndex {
	t.Helper()
	ix, err := m.EngineIndex(name)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// openSession opens a session on the model's dataset with opts and closes it
// when the test ends.
func openSession(t testing.TB, m *core.Model, opts ...engine.SessionOption) *engine.Session {
	t.Helper()
	sess, err := engine.Open(append([]engine.SessionOption{engine.WithDataset(m.Dataset)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sess
}

// batchRange runs the boxes as one Session.DoBatch and flattens the results
// into serialRange's shape.
func batchRange(t testing.TB, sess *engine.Session, qs []geom.AABB, workers int) ([]qhit, []engine.Result) {
	t.Helper()
	results, err := sess.DoBatch(context.Background(), rangeRequests(qs), workers)
	if err != nil {
		t.Fatalf("DoBatch workers=%d: %v", workers, err)
	}
	var hits []qhit
	for qi := range results {
		for _, h := range results[qi].Hits {
			hits = append(hits, qhit{qi, h.ID})
		}
	}
	return hits, results
}

// TestBatchQueryMatchesSerial asserts that batched Range requests on the
// model's FLAT and R-tree contenders reproduce a serial Do loop exactly —
// visit order and per-query stats — for several worker counts, with and
// without a shared buffer pool.
func TestBatchQueryMatchesSerial(t *testing.T) {
	m := diffModel(t, 12, false, 505)
	vol := m.Circuit.Params.Volume
	var queries []geom.AABB
	c := vol.Center()
	span := vol.Size().Scale(0.3)
	for i := 0; i < 24; i++ {
		off := geom.V(
			span.X*float64(i%3-1)*0.5,
			span.Y*float64((i/3)%3-1)*0.5,
			span.Z*float64((i/9)%3-1)*0.5,
		)
		queries = append(queries, geom.BoxAround(c.Add(off), 12+float64(i)))
	}

	for _, name := range []string{"flat", "rtree"} {
		ix := engineIndex(t, m, name)
		sess := openSession(t, m, engine.WithIndexName(name))
		want, wantStats := serialRange(t, ix, queries)
		if len(want) == 0 {
			t.Fatalf("%s: serial run found no hits — workload degenerate", name)
		}
		for _, w := range []int{2, 4, 7} {
			got, results := batchRange(t, sess, queries, w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: hit stream diverged from serial (%d vs %d hits)",
					name, w, len(got), len(want))
			}
			for qi := range wantStats {
				if results[qi].Stats != wantStats[qi] {
					t.Errorf("%s workers=%d: query %d stats %+v, want %+v",
						name, w, qi, results[qi].Stats, wantStats[qi])
				}
			}
		}

		// Through a shared pool the hit/miss split may differ per worker
		// interleaving, but the result stream must not, and the pool must
		// see the traffic.
		paged := ix.(engine.Paged)
		for _, w := range []int{1, 4} {
			pool, err := pager.NewBufferPool(paged.Store(), 16)
			if err != nil {
				t.Fatal(err)
			}
			paged.SetSource(pool)
			got, _ := batchRange(t, sess, queries, w)
			paged.SetSource(nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s+pool workers=%d: hit stream diverged", name, w)
			}
			if st := pool.Stats(); st.Hits+st.DemandReads == 0 {
				t.Errorf("%s+pool workers=%d: pool saw no traffic", name, w)
			}
		}
	}
}

// TestCircuitBuildWorkerCountInvariant asserts parallel tissue generation is
// bit-identical to serial generation.
func TestCircuitBuildWorkerCountInvariant(t *testing.T) {
	base := circuit.DefaultParams()
	base.Neurons = 8
	base.Volume = geom.Box(geom.V(0, 0, 0), geom.V(150, 150, 150))
	base.Seed = 77

	serial := circuit.MustBuild(base)
	for _, w := range []int{2, 5, -1} {
		p := base
		p.Workers = w
		par := circuit.MustBuild(p)
		if len(par.Elements) != len(serial.Elements) {
			t.Fatalf("workers=%d: %d elements, serial %d", w, len(par.Elements), len(serial.Elements))
		}
		for i := range par.Elements {
			if par.Elements[i] != serial.Elements[i] {
				t.Fatalf("workers=%d: element %d differs: %+v vs %+v",
					w, i, par.Elements[i], serial.Elements[i])
			}
		}
		if par.Bounds != serial.Bounds {
			t.Errorf("workers=%d: bounds differ", w)
		}
	}
}

// TestEngineRoutedMatchesDirect is the tentpole differential: on a real
// tissue model, the engine layer's FLAT and R-tree contenders must emit
// exactly the hits (Do's ascending-ID order against the sorted native order)
// and stats of the direct index calls, and the planner's routed batch must
// reproduce its chosen contender's serial run.
func TestEngineRoutedMatchesDirect(t *testing.T) {
	m := diffModel(t, 10, true, 606)
	vol := m.Circuit.Params.Volume
	c := vol.Center()
	var queries []geom.AABB
	for i := 0; i < 16; i++ {
		off := geom.V(
			vol.Size().X*0.25*float64(i%3-1)*0.5,
			vol.Size().Y*0.25*float64((i/3)%3-1)*0.5,
			vol.Size().Z*0.25*float64((i/9)%3-1)*0.5,
		)
		queries = append(queries, geom.BoxAround(c.Add(off), 12+float64(i)))
	}

	eflat, ertree := engineIndex(t, m, "flat"), engineIndex(t, m, "rtree")
	tree := modelTree(t, m)
	for qi, q := range queries {
		var direct []int32
		ds := m.Flat.Query(q, nil, func(id int32) { direct = append(direct, id) })
		slices.Sort(direct)
		routed, es := doRange(t, eflat, q)
		if !reflect.DeepEqual(direct, routed) {
			t.Fatalf("flat query %d: %d routed hits, %d direct (or content differs)", qi, len(routed), len(direct))
		}
		if es.PagesRead != ds.PagesRead || es.IndexReads != ds.SeedNodeAccesses ||
			es.Results != ds.Results {
			t.Errorf("flat query %d: engine stats %+v vs direct %+v", qi, es, ds)
		}

		var dtree []int32
		ts := tree.Query(q, func(it rtree.Item) { dtree = append(dtree, it.ID) })
		slices.Sort(dtree)
		rtreeRouted, rs := doRange(t, ertree, q)
		if !reflect.DeepEqual(dtree, rtreeRouted) {
			t.Fatalf("rtree query %d: %d routed hits, %d direct (or content differs)", qi, len(rtreeRouted), len(dtree))
		}
		if rs.PagesRead != ts.NodeAccesses() || rs.Results != ts.Results {
			t.Errorf("rtree query %d: engine stats %+v vs direct %+v", qi, rs, ts)
		}
	}

	// Planner-routed batch == chosen contender's serial loop, per worker
	// count; the plan cache holds the decision across the batches.
	sess := openSession(t, m)
	_, first := batchRange(t, sess, queries, 1)
	want, _ := serialRange(t, engineIndex(t, m, first[0].Index), queries)
	for _, w := range []int{1, 3, 6} {
		got, results := batchRange(t, sess, queries, w)
		if results[0].Index != first[0].Index {
			t.Fatalf("workers=%d: plan flipped from %s to %s", w, first[0].Index, results[0].Index)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: routed hits diverged from %s's serial run (%d vs %d)",
				w, first[0].Index, len(got), len(want))
		}
	}
}
