package engine_test

// Regression tests for the planner bugfixes: empty-batch routing must be a
// deterministic default (no fabricated 0.0 costs, no re-probing), concurrent
// first plans must probe each index exactly once (the singleflight latch),
// and calibration probes must not perturb an attached buffer pool.

import (
	"context"
	"sync"
	"testing"
	"time"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// countingIndex wraps a SpatialIndex and counts Do invocations (the probe
// path executes the calibration sample through Do); a configurable delay
// widens the pre-fix double-probe window.
type countingIndex struct {
	engine.SpatialIndex
	mu    sync.Mutex
	dos   int
	delay time.Duration
}

func (c *countingIndex) Do(ctx context.Context, req engine.Request, visit func(engine.Hit)) (engine.QueryStats, error) {
	c.mu.Lock()
	c.dos++
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.SpatialIndex.Do(ctx, req, visit)
}

func (c *countingIndex) doCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dos
}

// TestPlannerEmptyBatchDefault: PlanKind of a nil or empty sample must
// return a deterministic default — the first registered contender when no
// history exists, the learned-cheapest once history accumulates — with no
// probes and no fabricated 0.0 costs.
func TestPlannerEmptyBatchDefault(t *testing.T) {
	items := testItems(t, 8, 8001)
	indexes := buildIndexes(t, items)
	p := engine.NewPlanner(indexes...)

	for i := 0; i < 3; i++ {
		d := p.PlanKind(engine.Range, nil)
		if d.Index != indexes[0] {
			t.Fatalf("empty plan %d chose %s, want first registered (%s)",
				i, d.Index.Name(), indexes[0].Name())
		}
		if len(d.Probed) != 0 {
			t.Fatalf("empty plan %d probed %v; empty batches cannot be probed", i, d.Probed)
		}
		if len(d.CostPerQuery) != 0 {
			t.Fatalf("empty plan %d fabricated costs %v with no history", i, d.CostPerQuery)
		}
	}

	// With learned history the empty-batch default routes to the cheapest
	// profiled contender, still without probing.
	p.ObserveKind(indexes[1].Name(), engine.Range, []engine.QueryStats{{PagesRead: 2}})
	p.ObserveKind(indexes[0].Name(), engine.Range, []engine.QueryStats{{PagesRead: 100}})
	d := p.PlanKind(engine.Range, []engine.Request{})
	if d.Index != indexes[1] {
		t.Fatalf("empty plan with history chose %s, want learned-cheapest %s",
			d.Index.Name(), indexes[1].Name())
	}
	if len(d.Probed) != 0 || len(d.CostPerQuery) != 2 {
		t.Fatalf("empty plan with history: probed %v, costs %v", d.Probed, d.CostPerQuery)
	}
	if d.String() == "" {
		t.Error("empty decision rendering")
	}
}

// TestPlannerConcurrentPlansProbeOnce: many concurrent first plans must run
// exactly one calibration probe per index (pre-fix, the check-then-act race
// probed and observed the same index multiple times, skewing its history).
func TestPlannerConcurrentPlansProbeOnce(t *testing.T) {
	items := testItems(t, 8, 8002)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	reqs := rangeRequests(testQueries(vol, 12))

	inner := engine.NewFlat(flat.DefaultOptions())
	if err := inner.Build(items); err != nil {
		t.Fatal(err)
	}
	counting := &countingIndex{SpatialIndex: inner, delay: 20 * time.Millisecond}
	p := engine.NewPlanner(counting)

	const goroutines = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	probed := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			d := p.PlanKind(engine.Range, reqs)
			probed[g] = len(d.Probed)
		}(g)
	}
	close(start)
	wg.Wait()

	// One probe executes probeQueries (3) sample requests through Do.
	if got := counting.doCalls(); got != 3 {
		t.Fatalf("%d concurrent first plans executed %d probe queries, want exactly 3 (one probe)",
			goroutines, got)
	}
	total := 0
	for _, n := range probed {
		total += n
	}
	if total != 1 {
		t.Fatalf("%d decisions reported the probe, want exactly 1", total)
	}
}

// TestPlannerConcurrentKindProbesSerialize: probes of *different kinds* on
// the same index must not race on the index's read-path configuration — the
// per-(index, kind) latch admits one probe per kind concurrently, so probe
// execution itself is serialized per index. Pre-fix, a Range and a KNN probe
// raced on SetSource/restore (a -race report) and leaked probe traffic into
// the attached pool.
func TestPlannerConcurrentKindProbesSerialize(t *testing.T) {
	items := testItems(t, 8, 8005)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 12)

	ix := engine.NewFlat(flat.DefaultOptions())
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	pool, err := pager.NewBufferPool(ix.Store(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetSource(pool)
	p := engine.NewPlanner(ix)

	kinds := []struct {
		kind engine.Kind
		reqs []engine.Request
	}{
		{engine.Range, nil},
		{engine.KNN, nil},
		{engine.Point, nil},
		{engine.WithinDistance, nil},
	}
	for i := range kinds {
		for _, q := range queries {
			c := q.Center()
			switch kinds[i].kind {
			case engine.Range:
				kinds[i].reqs = append(kinds[i].reqs, engine.RangeRequest(q))
			case engine.KNN:
				kinds[i].reqs = append(kinds[i].reqs, engine.KNNRequest(c, 4))
			case engine.Point:
				kinds[i].reqs = append(kinds[i].reqs, engine.PointRequest(c))
			case engine.WithinDistance:
				kinds[i].reqs = append(kinds[i].reqs, engine.WithinDistanceRequest(c, 10))
			}
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		for _, kc := range kinds {
			wg.Add(1)
			go func(kind engine.Kind, reqs []engine.Request) {
				defer wg.Done()
				<-start
				p.PlanKind(kind, reqs)
			}(kc.kind, kc.reqs)
		}
	}
	close(start)
	wg.Wait()

	if st := pool.Stats(); st != (pager.Stats{}) {
		t.Fatalf("concurrent kind probes perturbed the attached pool: %+v", st)
	}
	if pool.Len() != 0 {
		t.Fatalf("concurrent kind probes populated the attached pool with %d pages", pool.Len())
	}
	if ix.Source() != pool {
		t.Fatal("concurrent kind probes did not restore the attached source")
	}
}

// TestPlannerProbeLeavesAttachedPoolUntouched: a calibration probe must run
// against the index's cold store, leaving an attached BufferPool's cache and
// counters exactly as they were, and must restore the attachment.
func TestPlannerProbeLeavesAttachedPoolUntouched(t *testing.T) {
	items := testItems(t, 8, 8003)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 12)

	ix := engine.NewFlat(flat.DefaultOptions())
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	pool, err := pager.NewBufferPool(ix.Store(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetSource(pool)

	p := engine.NewPlanner(ix)
	d := p.PlanKind(engine.Range, rangeRequests(queries))
	if len(d.Probed) != 1 {
		t.Fatalf("first plan probed %v, want the one unprofiled contender", d.Probed)
	}
	if st := pool.Stats(); st != (pager.Stats{}) {
		t.Fatalf("probe perturbed the attached pool: %+v", st)
	}
	if pool.Len() != 0 {
		t.Fatalf("probe populated the attached pool with %d pages", pool.Len())
	}
	if ix.Source() != pool {
		t.Fatal("probe did not restore the attached source")
	}

	// The attachment still works: a real query goes through the pool.
	doRange(t, ix, queries[0])
	if st := pool.Stats(); st.DemandReads+st.Hits == 0 {
		t.Fatal("restored source saw no traffic on a real query")
	}
}
