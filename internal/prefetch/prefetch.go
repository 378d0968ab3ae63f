// Package prefetch provides the prefetching framework of §3 of the paper and
// the two location-only baselines the demo lets the audience compare SCOUT
// against:
//
//   - None — no prefetching: every page of every query is a demand read.
//   - Hilbert — the web-GIS policy of Park & Kim (TKDE 2001): prefetch the
//     pages adjacent, in storage-curve order, to the pages the current query
//     touched. FLAT's STR layout is a space-filling order, so curve
//     neighbors are spatial neighbors; the policy uses "only the current
//     location" (§3).
//   - Extrapolation — linear dead reckoning: extrapolate the next query
//     center from "the last few positions" (§3) and prefetch the pages of
//     the predicted range.
//
// SCOUT (package scout) implements the same Prefetcher interface and is the
// content-aware policy that makes the comparison.
//
// The package also provides the walkthrough Simulator that produces the
// numbers of the demo's statistics panel (Figure 6): per-method demand reads,
// prefetch accuracy, and the simulated end-to-end latency of the query
// sequence under the pager's cost model, where prefetch I/O overlaps the
// user's think time.
package prefetch

import (
	"time"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// PageGeometry is the page-layout surface prefetchers need from the index
// serving a walkthrough: how a spatial range maps to pages. flat.Index and
// every engine.SpatialIndex wrapper satisfy it, so prefetching is no longer
// FLAT-specific.
type PageGeometry interface {
	// PagesInRange returns the pages a query of box q would touch.
	PagesInRange(q geom.AABB) []pager.PageID
	// PageOf returns the page holding element id.
	PageOf(id int32) pager.PageID
	// NumPages returns the number of data pages.
	NumPages() int
}

// Served is the full index surface the walkthrough Simulator drives: page
// geometry for prediction, the page store to cache, and a query path that
// reads through a buffer pool (so demand reads, hits and prefetch hits are
// accounted). flat.Index satisfies it directly; the engine layer's indexes
// (FLAT, R-tree, grid, sharded) all satisfy it too, which is what lets the
// buffer-pool + prefetch/SCOUT stack sit beneath any index.
type Served interface {
	PageGeometry
	// Store returns the page store the simulator wraps in a pool.
	Store() *pager.Store
	// PagedQuery executes one range query reading pages through pool,
	// visiting IDs in the index's native traversal order. The order is part
	// of the contract: content-aware prefetchers consume the result as
	// emitted (scout.reconstruct builds structures in that order and
	// Scout.Predict's stable sort breaks score ties by it — on a walk's
	// first step every exit scores 0, so order alone picks the prefetched
	// pages). On the engine indexes this is the traversal behind
	// SpatialIndex.Do(Range) before Do sorts its hits into canonical
	// ascending-ID order — sorting here would change which pages are
	// prefetched and so every simulated stall.
	PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(id int32))
}

// Context gives prefetchers access to the data layout and the query history.
// It is rebuilt by the simulator for every walkthrough.
type Context struct {
	// Index is the page geometry of the index serving the walkthrough;
	// prefetchers use it to turn predictions into pages.
	Index PageGeometry
	// Segment returns the capsule geometry of an element ID. Content-aware
	// prefetchers (SCOUT) reconstruct structures from it.
	Segment func(id int32) geom.Segment
	// History holds the boxes of all queries issued so far, oldest first,
	// including the most recent one.
	History []geom.AABB
}

// Prefetcher predicts which pages to fetch during the think time after a
// query.
type Prefetcher interface {
	// Name returns the display name used in experiment tables.
	Name() string
	// Reset clears per-sequence state; the simulator calls it before every
	// walkthrough.
	Reset()
	// Predict is called after a query completes, with the query's box, its
	// result (element IDs), and the budget: the maximum number of pages the
	// think time can hide. It returns the pages to prefetch, most valuable
	// first; the simulator truncates to the budget.
	Predict(ctx *Context, q geom.AABB, result []int32, budget int) []pager.PageID
}

// None is the no-prefetching baseline.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// Reset implements Prefetcher.
func (None) Reset() {}

// Predict implements Prefetcher.
func (None) Predict(*Context, geom.AABB, []int32, int) []pager.PageID { return nil }

// Hilbert prefetches the storage-order neighbors of the pages the current
// query touched: pages p±1, p±2, … around the maximum and minimum page the
// query read, alternating outward, up to the budget. With a space-filling
// layout these are the spatially adjacent pages — the classic tile-based GIS
// policy.
type Hilbert struct{}

// Name implements Prefetcher.
func (Hilbert) Name() string { return "hilbert" }

// Reset implements Prefetcher.
func (Hilbert) Reset() {}

// Predict implements Prefetcher.
func (Hilbert) Predict(ctx *Context, q geom.AABB, _ []int32, budget int) []pager.PageID {
	pages := ctx.Index.PagesInRange(q)
	if len(pages) == 0 {
		return nil
	}
	lo, hi := pages[0], pages[0]
	for _, p := range pages[1:] {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	n := pager.PageID(ctx.Index.NumPages())
	var out []pager.PageID
	for d := pager.PageID(1); int(d) <= budget; d++ {
		if hi+d < n {
			out = append(out, hi+d)
		}
		if lo-d >= 0 {
			out = append(out, lo-d)
		}
		if len(out) >= budget {
			break
		}
	}
	if len(out) > budget {
		out = out[:budget]
	}
	return out
}

// Extrapolation predicts the next query center by dead reckoning from the
// last two query centers and prefetches the predicted range's pages. On the
// jagged trajectories of neuron branches the straight-line assumption
// misfires at every turn — the weakness §3 attributes to location-only
// approaches.
type Extrapolation struct{}

// Name implements Prefetcher.
func (Extrapolation) Name() string { return "extrapolation" }

// Reset implements Prefetcher.
func (Extrapolation) Reset() {}

// Predict implements Prefetcher.
func (Extrapolation) Predict(ctx *Context, q geom.AABB, _ []int32, budget int) []pager.PageID {
	h := ctx.History
	if len(h) < 2 {
		return nil
	}
	cur := h[len(h)-1].Center()
	prev := h[len(h)-2].Center()
	step := cur.Sub(prev)
	// The predicted range keeps the query's own per-axis half-extents: a
	// cube sized from one axis alone would mis-cover anisotropic query
	// boxes on the other two.
	next := cur.Add(step)
	half := q.Size().Scale(0.5)
	predicted := geom.AABB{Min: next.Sub(half), Max: next.Add(half)}
	pages := ctx.Index.PagesInRange(predicted)
	if len(pages) > budget {
		pages = pages[:budget]
	}
	return pages
}

// StepResult records one query of a simulated walkthrough.
type StepResult struct {
	// DemandReads is the number of pages the user had to wait for.
	DemandReads int64
	// PrefetchReads is the number of pages prefetched after this query.
	PrefetchReads int64
	// PrefetchHits is the number of this query's pages served from earlier
	// prefetches.
	PrefetchHits int64
	// Results is the element count of the query.
	Results int64
	// Latency is the simulated stall time of this query.
	Latency time.Duration
}

// RunStats aggregates a simulated walkthrough, the quantities of the demo's
// Figure 6 panel ("how much data was prefetched in total, how much was
// correctly prefetched and how much data needed to be retrieved
// additionally").
type RunStats struct {
	// Method is the prefetcher's name.
	Method string
	// Steps holds per-query records.
	Steps []StepResult
	// DemandReads totals pages the user stalled on.
	DemandReads int64
	// PrefetchReads totals pages fetched speculatively.
	PrefetchReads int64
	// PrefetchHits totals prefetched pages that a later query actually
	// needed.
	PrefetchHits int64
	// Latency is the total simulated stall time across the sequence.
	Latency time.Duration
	// Elements totals query results.
	Elements int64
}

// Accuracy returns the fraction of prefetched pages that were later needed
// (1 when nothing was prefetched: an empty prediction is vacuously precise).
func (r RunStats) Accuracy() float64 {
	if r.PrefetchReads == 0 {
		return 1
	}
	return float64(r.PrefetchHits) / float64(r.PrefetchReads)
}

// Simulator executes query sequences against any Served index with a
// prefetcher filling the think time between steps.
type Simulator struct {
	// Index serves the queries.
	Index Served
	// Segment exposes element geometry to content-aware prefetchers.
	Segment func(id int32) geom.Segment
	// Cost converts page reads into time.
	Cost pager.CostModel
	// ThinkTime is how long the user inspects each result before the next
	// query; prefetch I/O runs during it for free. The demo's interactive
	// pace is modelled by the default half second.
	ThinkTime time.Duration
	// PoolPages is the buffer-pool capacity used for each run.
	PoolPages int
}

// Budget returns how many page reads fit into the think time.
func (s *Simulator) Budget() int {
	if s.Cost.PageRead <= 0 {
		return 0
	}
	return int(s.ThinkTime / s.Cost.PageRead)
}

// Run executes the sequence of query boxes with the given prefetcher on a
// cold buffer pool and returns the aggregated statistics.
func (s *Simulator) Run(p Prefetcher, boxes []geom.AABB) (RunStats, error) {
	pool, err := pager.NewBufferPool(s.Index.Store(), s.PoolPages)
	if err != nil {
		return RunStats{}, err
	}
	p.Reset()
	ctx := &Context{Index: s.Index, Segment: s.Segment}
	run := RunStats{Method: p.Name()}
	budget := s.Budget()

	for _, q := range boxes {
		ctx.History = append(ctx.History, q)
		before := pool.Stats()
		var result []int32
		s.Index.PagedQuery(q, pool, func(id int32) { result = append(result, id) })
		delta := pool.Stats().Sub(before)

		step := StepResult{
			DemandReads:  delta.DemandReads,
			PrefetchHits: delta.PrefetchHits,
			Results:      int64(len(result)),
			Latency:      s.Cost.DemandLatency(delta),
		}

		// Think time: the prefetcher predicts and the pool fetches, capped
		// by what the think time can hide.
		preds := p.Predict(ctx, q, result, budget)
		if len(preds) > budget {
			preds = preds[:budget]
		}
		prefBefore := pool.Stats()
		for _, pg := range preds {
			pool.Prefetch(pg)
		}
		step.PrefetchReads = pool.Stats().Sub(prefBefore).PrefetchReads

		run.Steps = append(run.Steps, step)
		run.DemandReads += step.DemandReads
		run.PrefetchReads += step.PrefetchReads
		run.PrefetchHits += step.PrefetchHits
		run.Latency += step.Latency
		run.Elements += step.Results
	}
	return run, nil
}
