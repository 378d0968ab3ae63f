package engine_test

// Plan-cache regression suite: hit accounting on repeated-shape workloads,
// epoch invalidation (a cached decision must not survive a Compact, even when
// the live item set is identical), and differential agreement with a fresh
// PlanKind on every consultation.

import (
	"context"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
)

// TestPlanCacheRepeatedShape asserts a repeated-shape workload on a planner
// session plans once and replays the cached decision afterwards: ≥90% of the
// consultations are hits, and the per-query stats carry the hit/miss record.
func TestPlanCacheRepeatedShape(t *testing.T) {
	items := testItems(t, 16, 7001)
	s := openSession(t, engine.WithDataset(baseDataset(t, items, buildIndexes(t, items)...)))
	p := s.Planner()
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	c := vol.Center()
	const n = 40
	var hits, misses int64
	for i := 0; i < n; i++ {
		// Same shape bucket each round: near-identical extent, moving center.
		off := geom.V(float64(i%5), float64(i%3), 0)
		res, err := s.Do(context.Background(), engine.RangeRequest(geom.BoxAround(c.Add(off), 30)))
		if err != nil {
			t.Fatal(err)
		}
		hits += res.Stats.PlanCacheHits
		misses += res.Stats.PlanCacheMisses
	}
	if hits+misses != n {
		t.Fatalf("consultations = %d, want %d (every planner-routed Do consults once)", hits+misses, n)
	}
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (first request plans, the rest replay)", misses)
	}
	if rate := float64(hits) / float64(n); rate < 0.9 {
		t.Errorf("hit rate = %.2f, want >= 0.90", rate)
	}
	ph, pm := p.PlanCacheStats()
	if ph != hits || pm != misses {
		t.Errorf("planner counters (%d, %d) disagree with per-query stats (%d, %d)", ph, pm, hits, misses)
	}
}

// TestPlanCacheDistinctShapesPlanSeparately asserts the shape signature keeps
// genuinely different selectivities apart: a tiny box and a huge box do not
// share a cache entry (each gets its own miss).
func TestPlanCacheDistinctShapesPlanSeparately(t *testing.T) {
	items := testItems(t, 16, 7002)
	s := openSession(t, engine.WithDataset(baseDataset(t, items, buildIndexes(t, items)...)))
	p := s.Planner()
	c := geom.V(100, 100, 100)
	small := engine.RangeRequest(geom.BoxAround(c, 2))
	large := engine.RangeRequest(geom.BoxAround(c, 80))
	for _, r := range []engine.Request{small, large, small, large} {
		if _, err := s.Do(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if _, misses := p.PlanCacheStats(); misses != 2 {
		t.Errorf("misses = %d, want 2 (one plan per shape bucket)", misses)
	}
}

// TestPlanCacheEpochInvalidation is the staleness differential: after
// SetEpoch changes, a planner must not serve the epoch's cached decision —
// the next consultation must re-run PlanKind and agree with a fresh planning
// even when nothing else changed.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	items := testItems(t, 16, 7003)
	indexes := buildIndexes(t, items)
	p := engine.NewPlanner(indexes...)
	sample := []engine.Request{engine.RangeRequest(geom.BoxAround(geom.V(100, 100, 100), 30))}

	d1, hit := p.PlanKindCached(engine.Range, sample)
	if hit {
		t.Fatal("first consultation reported a cache hit")
	}
	if _, hit = p.PlanKindCached(engine.Range, sample); !hit {
		t.Fatal("repeat consultation in the same epoch missed")
	}
	p.SetEpoch(1)
	d2, hit := p.PlanKindCached(engine.Range, sample)
	if hit {
		t.Fatal("consultation after SetEpoch reported a cache hit (stale decision served)")
	}
	// Differential: the re-planned decision must equal a fresh PlanKind on
	// the same history (the epoch bump invalidates the cache, not the
	// learned costs).
	if fresh := p.PlanKind(engine.Range, sample); fresh.Index != d2.Index {
		t.Errorf("post-epoch decision %s != fresh PlanKind %s", d2.Index.Name(), fresh.Index.Name())
	}
	_ = d1
}

// TestPlanCacheNotStaleAcrossCompact pins the end-to-end property on the
// Dataset path: Compact advances the epoch even when the live set is
// identical, and the new snapshot's routing must match a from-scratch
// PlanKind on its own views — never a decision cached for the old epoch.
func TestPlanCacheNotStaleAcrossCompact(t *testing.T) {
	items := testItems(t, 16, 7004)
	ds, err := engine.NewDataset(items, engine.DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req := engine.RangeRequest(geom.BoxAround(geom.V(100, 100, 100), 30))

	before := ds.Current()
	// Warm the old epoch's cache.
	s1, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s1.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()

	// A same-box Update keeps the live set semantically identical while
	// making the overlay non-empty, so Compact genuinely rebuilds and
	// advances the epoch.
	tx := ds.Begin()
	tx.Update(items[0].ID, items[0].Box)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := ds.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch() == before.Epoch() {
		t.Fatalf("Compact did not advance the epoch (still %d)", after.Epoch())
	}
	if after.NumItems() != before.NumItems() {
		t.Fatalf("live set changed across Compact: %d -> %d", before.NumItems(), after.NumItems())
	}

	s2, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, err := s2.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanCacheHits != 0 || res.Stats.PlanCacheMisses != 1 {
		t.Errorf("first post-compact Do: hits=%d misses=%d, want a fresh plan (0, 1)",
			res.Stats.PlanCacheHits, res.Stats.PlanCacheMisses)
	}
	// Differential: the routed contender equals a fresh PlanKind on the new
	// snapshot's planner state.
	if fresh := after.Planner().PlanKind(engine.Range, []engine.Request{req}); fresh.Index.Name() != res.Index {
		t.Errorf("post-compact route %s != fresh PlanKind %s", res.Index, fresh.Index.Name())
	}
}
