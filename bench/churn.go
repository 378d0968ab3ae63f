package main

import (
	"context"
	"time"

	"neurospatial/internal/engine"
)

// Commit latencies, in time order, are cut into at most commitRounds rounds of
// at least commitRoundMin commits, so that a round's p95 has a sample beyond it.
const (
	commitRounds   = 12
	commitRoundMin = 20
)

// runChurn is the churn-mem workload: every iteration re-grows one neuron in
// one Tx.Commit and then, as core.Model.Mutate does, opens a new session on
// the new epoch and issues a slice of the request stream through it. The
// dataset auto-compacts on the engine's default trigger.
func runChurn(e *env, sc scale, r *report) error {
	ctx := context.Background()
	var (
		t      *tissue
		bases  *builtBases
		ds     *engine.Dataset
		live   *liveSet
		reqs   []engine.Request
		pinned *engine.Session
		before []uint64 // the pinned session's epoch-0 answers
	)
	err := e.setup(r, func() error {
		if pinned != nil {
			pinned.Close()
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
			if bases, err = buildBases(t.items, r); err != nil {
				return err
			}
			bases.installTaps(t.items)
			opts.Bases = bases.list
		}
		if ds, err = engine.NewDataset(t.items, opts); err != nil {
			return err
		}
		live = newLiveSet(t)
		reqs = genRequests(e.seed, t.volume, sc.stream)
		// The session pinned here, before any churn, must replay these
		// answers bit for bit at the end. It doubles as the warm-up.
		if pinned, err = engine.Open(engine.WithDataset(ds)); err != nil {
			return err
		}
		before = before[:0]
		for i := 0; i < sc.perIter; i++ {
			res, err := pinned.Do(ctx, reqs[i])
			if err != nil {
				return err
			}
			before = append(before, digest(res.Hits))
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer pinned.Close()
	r.note("%s: %d elements; each commit re-grows one neuron (≈%d ops); auto-compaction at the engine defaults",
		sc.name, len(t.items), 2*len(t.items)/sc.neurons)

	var dec *decomposer
	if e.traced() {
		dec = newDecomposer(e.tr, r, bases, t.volume, sc.sample)
	}
	rng := subRand(e.seed, seedChurn)
	// Neurons are re-grown in one seeded order, over and over: every stretch
	// of commits then has the same mix of small and large neurons.
	order := rng.Perm(len(live.neurons))
	var (
		lat               latencies
		commits, cycle    []float64 // µs: commits of complete cycles, and of the current one
		stalls, perOp     []float64
		opens             []float64
		probes, sessions  float64
		routed            = map[string]float64{}
		hits, misses      float64
		overlaySizes      []float64
		queries, iters    int
		compactionsBefore = ds.Stats().Compactions
	)
	start := e.clock()
	// At least until one compaction cycle is complete, then until time is up.
	for iters = 0; len(stalls) == 0 || !e.spent(start, e.seconds); iters++ {
		e.yield()
		tx := ds.Begin()
		ops := live.regrow(rng, tx, order[iters%len(order)])
		t0 := time.Now()
		_, err := tx.Commit()
		took := time.Since(t0)
		if !r.check(err, "Tx.Commit") {
			return err // the live set has diverged; nothing after this is checkable
		}
		compacted := ds.Stats().Compactions > compactionsBefore
		if compacted {
			// A commit during which the overlay was folded: the writer's stall.
			compactionsBefore = ds.Stats().Compactions
			stalls = append(stalls, ms(took))
			commits, cycle = append(commits, cycle...), cycle[:0]
			lat.endRound() // one round per compaction cycle
			if dec != nil {
				dec.bases = nil // the dataset now serves bases it built itself
			}
		} else {
			cycle = append(cycle, us(took))
			perOp = append(perOp, us(took)/float64(len(ops.deleted)+len(ops.inserted)))
		}

		o0 := time.Now()
		sess, err := engine.Open(engine.WithDataset(ds))
		if err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(o0).Nanoseconds()))
		snap := sess.Snapshot()
		overlaySizes = append(overlaySizes, float64(snap.DeltaEntries()+snap.TombstoneCount()))
		if dec != nil && iters%8 == 0 {
			for k := 0; k < len(kindNames); k++ { // the stream's kinds are round-robin
				dec.consultMiss(snap, reqs[(queries+k)%len(reqs)])
			}
		}
		window := make([]engine.Request, sc.perIter)
		for j := range window {
			window[j] = reqs[(queries+j)%len(reqs)]
		}
		each := func(j int, res engine.Result, took time.Duration) {
			lat.add(took)
			routed[res.Index]++
			hits += float64(res.Stats.PlanCacheHits)
			misses += float64(res.Stats.PlanCacheMisses)
			if (queries+j)%sc.every == 0 {
				verify(r, live, snap, window[j], res.Hits)
			}
		}
		if dec != nil {
			dec.window(sess, window, queries, each)
		} else {
			doAll(r, sess, window, each)
		}
		queries += len(window)
		probes += float64(sess.Planner().ProbesRun())
		sessions++
		sess.Close()
	}
	if len(lat.p50s) == 0 {
		lat.endRound()
	}
	lat.report(r, "query_p50_us", "query_p99_us", "query_qps")
	if len(commits) == 0 {
		commits = cycle
	}
	r.set("commit_p50_us", calmLow(roundsOf(commits, commitRounds, commitRoundMin, 0.50)), len(commits))
	r.set("commit_p95_us", calmLow(roundsOf(commits, commitRounds, commitRoundMin, 0.95)), len(commits))
	r.setCalm("compact_stall_ms", stalls)
	r.set("heap_mb", e.heapMB(), 1)

	// The session pinned before the churn still reads epoch 0.
	for i, want := range before {
		res, err := pinned.Do(ctx, reqs[i])
		if r.check(err, "pinned Session.Do") && digest(res.Hits) != want {
			r.fail("pinned epoch-0 session changed its answer to %s", reqs[i])
		}
	}

	st := ds.Stats()
	r.note("%d commits, %d compactions, %d queries in %d complete cycles", st.Commits, st.Compactions, lat.total, len(lat.p50s))
	r.setMedian("session.open_ns", opens)
	r.setMedian("dataset.commit_us_per_op", perOp)
	r.set("dataset.compactions", float64(st.Compactions), 0)
	r.set("dataset.commits_per_compaction", ratio(float64(st.Commits), float64(st.Compactions)), 0)
	r.set("dataset.layout_pages", float64(st.LayoutPages), 0)
	r.set("pager.cow_shared_ratio", ratio(float64(st.Cow.Shared),
		float64(st.Cow.Shared+st.Cow.Patched+st.Cow.Appended)), 0)
	r.set("snapshot.overlay_size", mean(overlaySizes), len(overlaySizes))
	r.set("planner.probes_per_epoch", ratio(probes, sessions), int(sessions))
	r.set("planner.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	for _, c := range contenders {
		r.set("planner.route_share."+c, ratio(routed[c], float64(queries)), queries)
	}
	if dec != nil {
		// Compaction on its own, outside a commit.
		tx := ds.Begin()
		live.regrow(rng, tx, 0)
		if _, err := tx.Commit(); r.check(err, "Tx.Commit") {
			t0 := time.Now()
			_, err := ds.Compact()
			t1 := time.Now()
			if r.check(err, "Dataset.Compact") {
				e.tr.add(e.tr.newTrace(), 0, "dataset.compact", t0, t1, nil)
				r.set("dataset.compact_ms", ms(t1.Sub(t0)), 1)
			}
		}
		dec.acc.report(r)
	}
	return nil
}
