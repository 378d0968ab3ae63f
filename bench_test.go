// Package bench is the repository-level benchmark harness: one testing.B
// benchmark per experiment (E1-E6, each reproducing a figure or claim of the
// paper; README "Quickstart" lists their drivers) plus the ablation benches
// for the design choices behind them. Custom metrics expose the *shape*
// quantities (page reads, speedups, comparisons) next to Go's ns/op, so
// `go test -bench=. -benchmem` regenerates every series the drivers print.
package bench

import (
	"context"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"neurospatial/internal/circuit"
	"neurospatial/internal/core"
	"neurospatial/internal/engine"
	"neurospatial/internal/experiments"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/join"
	"neurospatial/internal/pager"
	"neurospatial/internal/prefetch"
	"neurospatial/internal/rtree"
	"neurospatial/internal/scout"
	"neurospatial/internal/touch"
)

// modelCache builds each benchmark model once; repeated bench invocations
// reuse it.
var modelCache sync.Map // params key -> *core.Model

type modelKey struct {
	neurons int
	edge    float64
	layered bool
	seed    int64
}

func benchModel(b *testing.B, k modelKey) *core.Model {
	b.Helper()
	if m, ok := modelCache.Load(k); ok {
		return m.(*core.Model)
	}
	p := circuit.DefaultParams()
	p.Neurons = k.neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(k.edge, k.edge, k.edge))
	p.Seed = k.seed
	if k.layered {
		p.Layers = circuit.CorticalLayers()
	}
	m, err := core.BuildModel(p, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	modelCache.Store(k, m)
	return m
}

// BenchmarkE1FLATvsRTreeDensity reproduces Figures 2+3: the same fixed-size
// range query against FLAT and the element R-tree across data densities.
// Metrics: pages/op (FLAT data pages or R-tree node reads) and results/op.
func BenchmarkE1FLATvsRTreeDensity(b *testing.B) {
	for _, neurons := range []int{32, 128, 256} {
		m := benchModel(b, modelKey{neurons: neurons, edge: 300, seed: 1})
		queries := e1Queries(m)
		b.Run(sub("FLAT/neurons", neurons), func(b *testing.B) {
			var pages, results int64
			for i := 0; i < b.N; i++ {
				st := m.Flat.Query(queries[i%len(queries)], nil, func(int32) {})
				pages += st.PagesRead
				results += st.Results
			}
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
			b.ReportMetric(float64(results)/float64(b.N), "results/op")
		})
		b.Run(sub("RTree/neurons", neurons), func(b *testing.B) {
			var pages, results int64
			for i := 0; i < b.N; i++ {
				st := m.RTree.Query(queries[i%len(queries)], func(rtree.Item) {})
				pages += st.NodeAccesses()
				results += st.Results
			}
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
			b.ReportMetric(float64(results)/float64(b.N), "results/op")
		})
	}
}

func e1Queries(m *core.Model) []geom.AABB {
	c := m.Circuit.Params.Volume.Center()
	span := m.Circuit.Params.Volume.Size().Scale(0.2)
	out := make([]geom.AABB, 8)
	for i := range out {
		off := geom.V(
			span.X*float64(i%2*2-1)*0.5,
			span.Y*float64((i/2)%2*2-1)*0.5,
			span.Z*float64((i/4)%2*2-1)*0.5,
		)
		out[i] = geom.BoxAround(c.Add(off), 25)
	}
	return out
}

// BenchmarkE2FLATCrawl reproduces Figure 4: crawl cost across query sizes on
// one dense model. Metrics: crawl pages, seed accesses, results.
func BenchmarkE2FLATCrawl(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 128, edge: 300, seed: 2})
	center := m.Circuit.Params.Volume.Center()
	for _, radius := range []float64{10, 40, 80} {
		q := geom.BoxAround(center, radius)
		b.Run(sub("radius", int(radius)), func(b *testing.B) {
			var pages, seed, results int64
			for i := 0; i < b.N; i++ {
				st := m.Flat.Query(q, nil, func(int32) {})
				pages += st.PagesRead
				seed += st.SeedNodeAccesses
				results += st.Results
			}
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
			b.ReportMetric(float64(seed)/float64(b.N), "seed/op")
			b.ReportMetric(float64(results)/float64(b.N), "results/op")
		})
	}
}

// BenchmarkE3ScoutPruning reproduces Figure 5: the per-step cost of SCOUT's
// skeleton reconstruction and candidate pruning along a walkthrough.
// Metric: candidates left at the walkthrough's end.
func BenchmarkE3ScoutPruning(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 64, edge: 300, seed: 3})
	neuron, branch, _ := m.Circuit.LongestPath()
	boxes := walkBoxes(b, m, neuron, branch)
	// Precompute query results so only SCOUT's own work is measured.
	results := make([][]int32, len(boxes))
	for i, q := range boxes {
		m.Flat.Query(q, nil, func(id int32) { results[i] = append(results[i], id) })
	}
	b.ResetTimer()
	var finalCandidates int
	for i := 0; i < b.N; i++ {
		s := scout.New(scout.Options{})
		ctx := &prefetch.Context{Index: m.Flat, Segment: m.Segment}
		for j, q := range boxes {
			ctx.History = append(ctx.History, q)
			s.Predict(ctx, q, results[j], 64)
		}
		finalCandidates = s.LastCandidateCount()
	}
	b.ReportMetric(float64(finalCandidates), "candidates")
	b.ReportMetric(float64(len(boxes)), "steps")
}

func walkBoxes(b *testing.B, m *core.Model, neuron int32, branch int) []geom.AABB {
	b.Helper()
	path, err := m.Circuit.BranchPath(neuron, branch)
	if err != nil {
		b.Fatal(err)
	}
	var boxes []geom.AABB
	carried := 0.0
	boxes = append(boxes, geom.BoxAround(path[0], 15))
	for i := 0; i+1 < len(path); i++ {
		a, bb := path[i], path[i+1]
		l := a.Dist(bb)
		for carried+l >= 8 {
			t := (8 - carried) / l
			a = a.Lerp(bb, t)
			l = a.Dist(bb)
			carried = 0
			boxes = append(boxes, geom.BoxAround(a, 15))
		}
		carried += l
	}
	return boxes
}

// BenchmarkE4ScoutSpeedup reproduces Figure 6: the full walkthrough
// simulation per prefetching method. Metrics: simulated stall milliseconds
// and prefetch accuracy; the paper's speedup is stall(none)/stall(method).
func BenchmarkE4ScoutSpeedup(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 64, edge: 300, seed: 4})
	neuron, branch, _ := m.Circuit.LongestPath()
	cfg := core.ExploreConfig{ThinkTime: 500 * time.Millisecond}
	for _, pf := range m.Prefetchers() {
		pf := pf
		b.Run(pf.Name(), func(b *testing.B) {
			var run prefetch.RunStats
			for i := 0; i < b.N; i++ {
				var err error
				run, err = m.Explore(neuron, branch, pf, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(run.Latency)/float64(time.Millisecond), "stall-ms")
			b.ReportMetric(100*run.Accuracy(), "accuracy-%")
			b.ReportMetric(float64(run.DemandReads), "demand-pages")
		})
	}
}

// BenchmarkE5JoinMethods reproduces Figure 7 and the §4.1 claims: the
// synapse join per algorithm on a layered circuit. Metrics: pairwise tests
// and auxiliary memory. NestedLoop is benchmarked on a reduced region to
// keep the quadratic baseline affordable.
func BenchmarkE5JoinMethods(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 128, edge: 350, layered: true, seed: 5})
	axons, dendrites := m.SynapseInputs(m.Circuit.Bounds)
	smallA, smallD := m.SynapseInputs(geom.BoxAround(m.Circuit.Params.Volume.Center(), 60))
	algs := m.JoinAlgorithms()
	for _, alg := range algs {
		alg := alg
		a, d := axons, dendrites
		if alg.Name() == "NestedLoop" {
			a, d = smallA, smallD
		}
		b.Run(alg.Name(), func(b *testing.B) {
			var st join.Stats
			for i := 0; i < b.N; i++ {
				st = alg.Join(a, d, 2.0, func(join.Pair) {})
			}
			b.ReportMetric(float64(st.BoxTests+st.Comparisons), "pairtests")
			b.ReportMetric(float64(st.ExtraBytes), "auxbytes")
			b.ReportMetric(float64(st.Results), "pairs")
		})
	}
}

// BenchmarkE6Scale reproduces the §1 scaling narrative: FLAT index build
// time across dataset sizes at constant density. ns/op is the build time;
// the elements metric gives the size axis.
func BenchmarkE6Scale(b *testing.B) {
	for _, neurons := range []int{32, 128, 512} {
		neurons := neurons
		edge := 250.0 * cbrtf(float64(neurons)/32.0)
		b.Run(sub("neurons", neurons), func(b *testing.B) {
			p := circuit.DefaultParams()
			p.Neurons = neurons
			p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(edge, edge, edge))
			p.Seed = 6
			c, err := circuit.Build(p)
			if err != nil {
				b.Fatal(err)
			}
			items := make([]rtree.Item, len(c.Elements))
			for i := range c.Elements {
				items[i] = rtree.Item{Box: c.Elements[i].Bounds(), ID: c.Elements[i].ID}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := flat.Build(items, flat.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(items)), "elements")
		})
	}
}

// BenchmarkAblationFLATGranularity ablates FLAT's page size (the page-level
// vs element-level neighborhood trade-off: page size 1 is an element-level
// graph).
func BenchmarkAblationFLATGranularity(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 64, edge: 300, seed: 7})
	items := make([]rtree.Item, len(m.Circuit.Elements))
	for i := range m.Circuit.Elements {
		items[i] = rtree.Item{Box: m.Circuit.Elements[i].Bounds(), ID: m.Circuit.Elements[i].ID}
	}
	q := geom.BoxAround(m.Circuit.Params.Volume.Center(), 40)
	for _, pageSize := range []int{4, 16, 64, 256} {
		pageSize := pageSize
		b.Run(sub("pagesize", pageSize), func(b *testing.B) {
			opts := flat.DefaultOptions()
			opts.PageSize = pageSize
			idx, err := flat.Build(items, opts)
			if err != nil {
				b.Fatal(err)
			}
			gs := idx.GraphStats()
			b.ResetTimer()
			var pages int64
			for i := 0; i < b.N; i++ {
				st := idx.Query(q, nil, func(int32) {})
				pages += st.PagesRead
			}
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
			b.ReportMetric(gs.AvgDegree, "avgdegree")
			b.ReportMetric(float64(gs.Edges), "graphedges")
		})
	}
}

// BenchmarkAblationTOUCHDepth ablates TOUCH's hierarchical assignment depth:
// depth 1 degenerates toward an indexed nested loop and shows why deep
// assignment matters.
func BenchmarkAblationTOUCHDepth(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 128, edge: 350, layered: true, seed: 5})
	axons, dendrites := m.SynapseInputs(m.Circuit.Bounds)
	for _, depth := range []int{1, 2, 0} { // 0 = unlimited
		depth := depth
		b.Run(sub("maxdepth", depth), func(b *testing.B) {
			alg := &touch.Touch{Opts: touch.Options{MaxAssignDepth: depth}}
			var st join.Stats
			for i := 0; i < b.N; i++ {
				st = alg.Join(axons, dendrites, 2.0, func(join.Pair) {})
			}
			b.ReportMetric(float64(st.BoxTests+st.Comparisons), "pairtests")
			b.ReportMetric(float64(st.NodePairs), "nodevisits")
		})
	}
}

// BenchmarkAblationBufferPool ablates the buffer-pool size under the E4
// walkthrough: small pools evict prefetched pages before they are used.
func BenchmarkAblationBufferPool(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 64, edge: 300, seed: 4})
	neuron, branch, _ := m.Circuit.LongestPath()
	sc := scout.New(scout.Options{})
	for _, pool := range []int{8, 64, 0} { // 0 = whole dataset
		pool := pool
		b.Run(sub("poolpages", pool), func(b *testing.B) {
			cfg := core.ExploreConfig{ThinkTime: 500 * time.Millisecond, PoolPages: pool}
			var run prefetch.RunStats
			for i := 0; i < b.N; i++ {
				var err error
				run, err = m.Explore(neuron, branch, sc, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(run.Latency)/float64(time.Millisecond), "stall-ms")
			b.ReportMetric(100*run.Accuracy(), "accuracy-%")
		})
	}
}

// BenchmarkHarnessE1 runs the full E1 harness once per iteration, the exact
// code path behind cmd/flatbench; heavy, so it is guarded for -short runs.
func BenchmarkHarnessE1(b *testing.B) {
	if testing.Short() {
		b.Skip("harness bench skipped in -short mode")
	}
	cfg := experiments.E1Config{
		Densities: []int{16, 64}, Edge: 250, QueryRadius: 25, Queries: 4, Seed: 21,
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// sub builds a sub-benchmark name.
func sub(k string, v int) string {
	return k + "=" + strconv.Itoa(v)
}

func cbrtf(x float64) float64 { return math.Cbrt(x) }

// BenchmarkTOUCHParallelWorkers measures the probe-phase scaling of the
// parallel TOUCH extension (the original system ran on multicore nodes).
func BenchmarkTOUCHParallelWorkers(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 128, edge: 350, layered: true, seed: 5})
	axons, dendrites := m.SynapseInputs(m.Circuit.Bounds)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(sub("workers", workers), func(b *testing.B) {
			alg := &touch.Touch{Opts: touch.Options{Workers: workers}}
			var pairs int64
			for i := 0; i < b.N; i++ {
				pairs = 0
				alg.Join(axons, dendrites, 2.0, func(join.Pair) { pairs++ })
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

// BenchmarkPBSMProbeWorkers measures the probe-phase scaling of the
// parallel PBSM: the cell-by-cell join is embarrassingly parallel once the
// reference-point dedup makes cells independent. probe-ms/op isolates the
// parallelized phase; compare workers=1 against workers>=4 for the speedup
// (≈linear on multicore hardware; a single-CPU container shows ≈1×).
func BenchmarkPBSMProbeWorkers(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 128, edge: 350, layered: true, seed: 5})
	axons, dendrites := m.SynapseInputs(m.Circuit.Bounds)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(sub("workers", workers), func(b *testing.B) {
			alg := join.PBSM{Workers: workers}
			var st join.Stats
			var probe time.Duration
			for i := 0; i < b.N; i++ {
				st = alg.Join(axons, dendrites, 2.0, func(join.Pair) {})
				probe += st.ProbeTime
			}
			b.ReportMetric(float64(probe)/float64(b.N)/1e6, "probe-ms/op")
			b.ReportMetric(float64(st.Results), "pairs")
		})
	}
}

// BenchmarkS3ProbeWorkers measures the probe-phase scaling of the parallel
// S3: the frontier expansion hands each worker an independent subtree pair.
func BenchmarkS3ProbeWorkers(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 128, edge: 350, layered: true, seed: 5})
	axons, dendrites := m.SynapseInputs(m.Circuit.Bounds)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(sub("workers", workers), func(b *testing.B) {
			alg := join.S3{Workers: workers}
			var st join.Stats
			var probe time.Duration
			for i := 0; i < b.N; i++ {
				st = alg.Join(axons, dendrites, 2.0, func(join.Pair) {})
				probe += st.ProbeTime
			}
			b.ReportMetric(float64(probe)/float64(b.N)/1e6, "probe-ms/op")
			b.ReportMetric(float64(st.Results), "pairs")
		})
	}
}

// benchBatch drains the boxes as one Session.DoBatch of Range requests on the
// model's named engine contender per iteration, reporting pages/op and
// results/op — both must be identical across worker counts (the determinism
// guarantee).
func benchBatch(b *testing.B, m *core.Model, contender string, queries []geom.AABB, workers int) {
	b.Helper()
	sess, err := engine.Open(engine.WithIndex(m.Engine.Index(contender)))
	if err != nil {
		b.Fatal(err)
	}
	reqs := rangeRequests(queries)
	b.ResetTimer()
	var pages, results int64
	for i := 0; i < b.N; i++ {
		res, err := sess.DoBatch(context.Background(), reqs, workers)
		if err != nil {
			b.Fatal(err)
		}
		for j := range res {
			pages += res[j].Stats.PagesRead
			results += res[j].Stats.Results
		}
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}

// BenchmarkFLATDoBatchWorkers measures batched concurrent range queries
// against the FLAT contender — the multi-user serving regime. ns/op is the
// time to drain the whole batch.
func BenchmarkFLATDoBatchWorkers(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 256, edge: 300, seed: 1})
	vol := m.Circuit.Params.Volume
	c := vol.Center()
	span := vol.Size().Scale(0.25)
	queries := make([]geom.AABB, 64)
	for i := range queries {
		off := geom.V(
			span.X*float64(i%4-2)*0.4,
			span.Y*float64((i/4)%4-2)*0.4,
			span.Z*float64((i/16)%4-2)*0.4,
		)
		queries[i] = geom.BoxAround(c.Add(off), 25)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(sub("workers", workers), func(b *testing.B) {
			benchBatch(b, m, "flat", queries, workers)
		})
	}
}

// BenchmarkRTreeDoBatchWorkers is the R-tree counterpart of the FLAT
// batch bench, over the same query set shape.
func BenchmarkRTreeDoBatchWorkers(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 256, edge: 300, seed: 1})
	queries := e1Queries(m)
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(sub("workers", workers), func(b *testing.B) {
			benchBatch(b, m, "rtree", queries, workers)
		})
	}
}

// BenchmarkCircuitBuildWorkers measures parallel tissue generation: the
// morphology phase dominates a build and every neuron is independently
// seeded, so the phase scales with cores while staying bit-deterministic.
func BenchmarkCircuitBuildWorkers(b *testing.B) {
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(sub("workers", workers), func(b *testing.B) {
			p := circuit.DefaultParams()
			p.Neurons = 64
			p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(300, 300, 300))
			p.Seed = 12
			p.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := circuit.Build(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRTreeOps measures the building-block index operations other
// packages lean on.
func BenchmarkRTreeOps(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 64, edge: 300, seed: 8})
	items := make([]rtree.Item, len(m.Circuit.Elements))
	for i := range m.Circuit.Elements {
		items[i] = rtree.Item{Box: m.Circuit.Elements[i].Bounds(), ID: m.Circuit.Elements[i].ID}
	}
	b.Run("STRBulkLoad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rtree.STR(items, 16); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(items)), "items")
	})
	// The same kernel at FLAT's page size, without the tree above the tiles.
	b.Run("PackSTR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tiles := rtree.PackSTR(items, 64); len(tiles) == 0 {
				b.Fatal("no tiles")
			}
		}
		b.ReportMetric(float64(len(items)), "items")
	})
	tr, err := rtree.STR(items, 16)
	if err != nil {
		b.Fatal(err)
	}
	q := geom.BoxAround(m.Circuit.Params.Volume.Center(), 30)
	b.Run("RangeQuery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Query(q, func(rtree.Item) {})
		}
	})
	b.Run("SeedInRange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.SeedInRange(q)
		}
	})
}

// BenchmarkKNN16 measures a 16-nearest-neighbors request on each engine
// contender through Do — the path requests take.
func BenchmarkKNN16(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 64, edge: 300, seed: 8})
	req := engine.KNNRequest(m.Circuit.Params.Volume.Center(), 16)
	for _, name := range []string{"flat", "rtree", "grid", "sharded"} {
		ix := m.Engine.Index(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Do(context.Background(), req, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCircuitGeneration measures the synthetic-data substrate itself.
func BenchmarkCircuitGeneration(b *testing.B) {
	for _, neurons := range []int{16, 64} {
		neurons := neurons
		b.Run(sub("neurons", neurons), func(b *testing.B) {
			p := circuit.DefaultParams()
			p.Neurons = neurons
			p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(300, 300, 300))
			var elems int
			for i := 0; i < b.N; i++ {
				c, err := circuit.Build(p)
				if err != nil {
					b.Fatal(err)
				}
				elems = len(c.Elements)
			}
			b.ReportMetric(float64(elems), "elements")
		})
	}
}

// BenchmarkAblationWarmCache reruns the E1 comparison through buffer pools:
// with both indexes' pages cached, repeated queries cost only hits, so the
// comparison isolates the cold-read footprints (the regime of the demo's
// live statistics, where the audience re-queries nearby regions).
func BenchmarkAblationWarmCache(b *testing.B) {
	m := benchModel(b, modelKey{neurons: 128, edge: 300, seed: 9})
	q := geom.BoxAround(m.Circuit.Params.Volume.Center(), 30)

	b.Run("FLAT", func(b *testing.B) {
		pool, err := pager.NewBufferPool(m.Flat.Store(), m.Flat.NumPages())
		if err != nil {
			b.Fatal(err)
		}
		m.Flat.Query(q, pool, func(int32) {}) // warm
		cold := pool.Stats().DemandReads
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Flat.Query(q, pool, func(int32) {})
		}
		b.ReportMetric(float64(cold), "cold-pages")
		b.ReportMetric(float64(pool.Stats().DemandReads-cold), "warm-misses")
	})
	b.Run("PagedRTree", func(b *testing.B) {
		pt, err := rtree.NewPaged(m.RTree)
		if err != nil {
			b.Fatal(err)
		}
		pool, err := pager.NewBufferPool(pt.Store(), pt.NumPages())
		if err != nil {
			b.Fatal(err)
		}
		pt.Query(q, pool, func(rtree.Item) {}) // warm
		cold := pool.Stats().DemandReads
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pt.Query(q, pool, func(rtree.Item) {})
		}
		b.ReportMetric(float64(cold), "cold-pages")
		b.ReportMetric(float64(pool.Stats().DemandReads-cold), "warm-misses")
	})
}
