package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"neurospatial/internal/engine"
)

// setup runs fn e.setupReps times and records the median as setup_s; the last
// run's state is the one the workload measures. Each repetition starts from a
// collected heap, so one does not pay for the previous one's garbage.
func (e *env) setup(r *report, fn func() error) error {
	var took []float64
	for i := 0; i < e.setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(took), len(took))
	return nil
}

// heapMB is HeapAlloc after a forced collection, taken once every other lane
// has finished and released what it held. A fill-in pass skips it: its heap is
// never reported, and a forced collection is dear.
func (e *env) heapMB() float64 {
	if e.fill {
		return 0
	}
	e.alone()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// verify checks one answer against the brute-force oracle over live, and that
// all four contender views of snap give that same answer.
func verify(r *report, live *liveSet, snap *engine.Snapshot, req engine.Request, got []engine.Hit) {
	want := digest(live.oracle(req))
	r.op()
	if digest(got) != want {
		r.fail("epoch %d: %s differs from the oracle", snap.Epoch(), req)
	}
	for _, view := range snap.Indexes() {
		hits, _, _, _, err := timeDo(view, req)
		if r.check(err, view.Name()+" view Do") && digest(hits) != want {
			r.fail("epoch %d: %s view differs from the oracle on %s", snap.Epoch(), view.Name(), req)
		}
	}
}

// doAll issues reqs through sess one at a time and hands every successful
// call, with its wall time, to each; an error counts as a failed operation.
func doAll(r *report, sess *engine.Session, reqs []engine.Request, each func(i int, res engine.Result, took time.Duration)) {
	for i, req := range reqs {
		t0 := time.Now()
		res, err := sess.Do(context.Background(), req)
		took := time.Since(t0)
		if r.check(err, "Session.Do") {
			each(i, res, took)
		}
	}
}

// runMixed is the mixed-mem workload: a read-only mixed-kind stream through
// one planner-routed session pinned to epoch 0 of an in-memory dataset.
func runMixed(e *env, sc scale, r *report) error {
	ctx := context.Background()
	var (
		t     *tissue
		bases *builtBases
		ds    *engine.Dataset
		sess  *engine.Session
		reqs  []engine.Request
	)
	err := e.setup(r, func() error {
		if sess != nil {
			sess.Close()
		}
		t0 := time.Now()
		var err error
		if t, err = buildTissue(sc); err != nil {
			return err
		}
		r.set("circuit.build_ms", ms(time.Since(t0)), 1)
		r.set("circuit.elements", float64(len(t.items)), 0)
		opts := engine.DatasetOptions{Contenders: contenders}
		if e.traced() {
			// The traced run builds the bases itself so that it can tap
			// their page reads and replay requests through them.
			if bases, err = buildBases(t.items, r); err != nil {
				return err
			}
			opts.Bases = bases.list
		}
		if ds, err = engine.NewDataset(t.items, opts); err != nil {
			return err
		}
		o0 := time.Now()
		if sess, err = engine.Open(engine.WithDataset(ds)); err != nil {
			return err
		}
		r.set("session.open_ns", float64(time.Since(o0).Nanoseconds()), 1)
		reqs = genRequests(e.seed, t.volume, sc.stream)
		for i := 0; i < sc.warm; i++ {
			if _, err := sess.Do(ctx, reqs[i%len(reqs)]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	r.note("%s: %d elements, %d layout pages, stream of %d requests", sc.name, len(t.items),
		ds.Stats().LayoutPages, len(reqs))

	// Timed phase 1: whole passes over the stream, one Do at a time.
	doBudget, batchBudget := 0.7*e.seconds, 0.3*e.seconds
	var lat, plain latencies
	kept := map[int][]engine.Hit{} // every sc.every-th answer of the first pass
	routed := map[string]float64{}
	var hits, misses float64
	pass := 0
	record := func(l *latencies) func(int, engine.Result, time.Duration) {
		return func(i int, res engine.Result, took time.Duration) {
			l.add(took)
			if pass == 0 && l == &lat { // a traced run's plain pass repeats pass 0
				routed[res.Index]++
				hits += float64(res.Stats.PlanCacheHits)
				misses += float64(res.Stats.PlanCacheMisses)
				if i%sc.every == 0 {
					kept[i] = res.Hits
				}
			}
		}
	}
	plainPass := func(l *latencies) {
		doAll(r, sess, reqs, record(l))
		l.endRound()
	}
	var dec *decomposer
	var overhead []float64 // per window: its first round's p50 over the plain pass's before it
	start := e.clock()
	for ; pass == 0 || !e.spent(start, doBudget); pass++ {
		e.yield()
		if !e.traced() {
			plainPass(&lat)
			continue
		}
		// A traced run alternates a plain pass, taps detached — the untraced
		// side of trace.overhead_pct — with a decomposed window.
		if dec == nil {
			dec = newDecomposer(e.tr, r, bases, t.volume, sc.sample)
		}
		bases.detachTaps()
		plainPass(&plain)
		bases.installTaps(t.items)
		dec.window(sess, reqs, 0, record(&lat))
		lat.endRound()
		overhead = append(overhead, 100*(ratio(lat.p50s[len(lat.p50s)-1], plain.p50s[len(plain.p50s)-1])-1))
	}
	lat.report(r, "query_p50_us", "query_p99_us", "query_qps")
	for _, c := range contenders {
		r.set("planner.route_share."+c, routed[c]/float64(len(reqs)), len(reqs))
	}
	r.set("planner.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	r.set("planner.probes_per_epoch", float64(sess.Planner().ProbesRun()), 1)

	// Timed phase 2: DoBatch over windows of the stream at workers = nproc.
	batchQPS := func(workers int, budget float64) (float64, int) {
		var qps []float64
		bstart := e.clock()
		for n := 0; n < 3 || !e.spent(bstart, budget); n++ {
			e.yield()
			batch := make([]engine.Request, sc.batch)
			off := n * sc.batch
			for i := range batch {
				batch[i] = reqs[(off+i)%len(reqs)]
			}
			t0 := time.Now()
			results, err := sess.DoBatch(ctx, batch, workers)
			took := time.Since(t0)
			if !r.check(err, "Session.DoBatch") {
				continue
			}
			qps = append(qps, float64(len(batch))/took.Seconds())
			for i := range results {
				if want, ok := kept[(off+i)%len(reqs)]; ok {
					r.op()
					if digest(results[i].Hits) != digest(want) {
						r.fail("DoBatch answer %d differs from Do's", i)
					}
				}
			}
		}
		return calmHigh(qps), len(qps)
	}
	if e.traced() {
		w1, n1 := batchQPS(1, batchBudget/2)
		wn, _ := batchQPS(e.workers, batchBudget/2)
		r.set("parallel.batch_qps_w1", w1, n1)
		r.set("parallel.batch_speedup", ratio(wn, w1), n1)
	} else {
		qps, n := batchQPS(e.workers, batchBudget)
		r.set("batch_qps", qps, n)
	}
	r.set("heap_mb", e.heapMB(), 1)

	// Checks, outside the timed phases.
	live := newLiveSet(t)
	for i, got := range kept {
		verify(r, live, sess.Snapshot(), reqs[i], got)
	}
	st := ds.Stats()
	r.set("dataset.compactions", float64(st.Compactions), 0)
	r.set("dataset.layout_pages", float64(st.LayoutPages), 0)
	if dec != nil {
		for k := 0; k < len(kindNames); k++ { // the stream's kinds are round-robin
			dec.consultMiss(sess.Snapshot(), reqs[k])
		}
		dec.acc.report(r)
		r.setMedian("trace.overhead_pct", overhead)
		partitionTime(t, r)
	}
	runtime.KeepAlive(ds)
	return nil
}
