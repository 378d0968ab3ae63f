package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"neurospatial/internal/parallel"
)

// Session is the engine's front door: every query — any Kind, any contender,
// serial or batched — enters through Open / Do / DoBatch. A session pins the
// snapshot of a Dataset current at Open time: every Do and DoBatch sees that
// epoch's consistent item set, no matter how many commits land afterwards.
// Requests route through the snapshot's own planner, or to one fixed
// contender view when WithIndexName is given; Close releases the pin. It is
// also where context cancellation enters the execution stack: Do and DoBatch
// accept a context.Context that the index traversals below observe at
// page-read granularity, so a canceled batch aborts at the next page, not the
// next query.
//
// Sessions are safe for concurrent use, and against concurrent Dataset
// commits — they read an immutable snapshot, which is the point of them — as
// long as the bases' configuration (Paged.SetSource) is not mutated
// concurrently, the same contract the indexes themselves carry.
type Session struct {
	dataset   *Dataset
	snap      *Snapshot
	fixedView SpatialIndex
	indexName string
	closed    atomic.Bool
}

// SessionOption configures Open.
type SessionOption func(*Session)

// WithDataset pins the dataset's current snapshot for the session's
// lifetime: the session serves that epoch — consistently — while later
// commits land. Call Close to release the pin. Requests route through the
// pinned snapshot's per-snapshot planner unless WithIndexName fixes a
// contender.
func WithDataset(d *Dataset) SessionOption { return func(s *Session) { s.dataset = d } }

// WithIndexName fixes the serving contender of the session to the named
// snapshot view ("flat", "rtree", "grid", "sharded") instead of planner
// routing.
func WithIndexName(name string) SessionOption { return func(s *Session) { s.indexName = name } }

// Open opens a query session on the snapshot WithDataset names, which it
// requires, optionally fixed to one contender view by WithIndexName.
func Open(opts ...SessionOption) (*Session, error) {
	s := &Session{}
	for _, opt := range opts {
		opt(s)
	}
	if s.dataset == nil {
		return nil, fmt.Errorf("engine: Open requires WithDataset")
	}
	s.snap = s.dataset.Acquire()
	if s.indexName != "" {
		if s.fixedView = s.snap.Index(s.indexName); s.fixedView == nil {
			s.snap.Release()
			return nil, fmt.Errorf("engine: Open: snapshot has no contender %q (have %v)",
				s.indexName, s.dataset.opts.Contenders)
		}
	}
	return s, nil
}

// Close releases the session's snapshot pin. It is idempotent, and safe
// against concurrent Close calls. A closed session must not serve further
// requests.
func (s *Session) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.snap.Release()
	}
}

// Snapshot returns the pinned snapshot. Its epoch is frozen: commits after
// Open do not change what the session reads.
func (s *Session) Snapshot() *Snapshot { return s.snap }

// routingPlanner returns the planner consulted for routing: the pinned
// snapshot's, or nil when WithIndexName fixed the view.
func (s *Session) routingPlanner() *Planner {
	if s.fixedView == nil {
		return s.snap.Planner()
	}
	return nil
}

// nextCursor is the resume token of a result: set only when req carried a
// Limit and its page of hits filled it.
func nextCursor(req Request, hits []Hit) Cursor {
	if req.Limit == 0 || len(hits) != req.Limit {
		return ""
	}
	return NextCursor(req.Kind, hits[len(hits)-1])
}

// route picks the serving index for requests of one kind, using the given
// same-kind requests as the planner's calibration sample. A routed session
// consults the per-epoch plan cache first — a repeated (kind, shape) skips
// PlanKind and its probing entirely.
// cached reports a cache hit; consulted reports whether the planner (and
// therefore the cache) was involved at all.
func (s *Session) route(kind Kind, sample []Request) (ix SpatialIndex, cached, consulted bool) {
	if s.fixedView != nil {
		return s.fixedView, false, false
	}
	d, hit := s.routingPlanner().PlanKindCached(kind, sample)
	return d.Index, hit, true
}

// planCacheStamp records a routing consultation's outcome on the query record.
func planCacheStamp(st *QueryStats, cached, consulted bool) {
	if !consulted {
		return
	}
	if cached {
		st.PlanCacheHits++
	} else {
		st.PlanCacheMisses++
	}
}

// observe feeds executed stats back into the routing planner (a fixed-view
// session learns nothing).
func (s *Session) observe(name string, kind Kind, sts []QueryStats) {
	if p := s.routingPlanner(); p != nil {
		p.ObserveKind(name, kind, sts)
	}
}

// Do executes one request and returns its result. The request is validated
// first (*RequestError on malformed input, never a panic); ctx cancellation
// or deadline expiry returns ctx.Err() with no hits.
func (s *Session) Do(ctx context.Context, req Request) (Result, error) {
	if err := req.Validate(); err != nil {
		return Result{}, err
	}
	// Observe cancellation before routing: planning an unprofiled kind runs
	// real calibration probes, which a dead context should not pay for.
	if err := ctxErr(ctx); err != nil {
		return Result{}, err
	}
	// The one-request calibration sample lives on the stack frame; routing
	// does not retain it.
	sample := [1]Request{req}
	ix, cached, consulted := s.route(req.Kind, sample[:])
	// The emit closure captures the hit slice alone: capturing the Result
	// would move all of it to the heap on every request.
	var hits []Hit
	st, err := ix.Do(ctx, req, func(h Hit) { hits = append(hits, h) })
	if err != nil {
		return Result{}, err
	}
	planCacheStamp(&st, cached, consulted)
	s.observe(ix.Name(), req.Kind, []QueryStats{st})
	return Result{Request: req, Index: ix.Name(), Hits: hits, Stats: st, Cursor: nextCursor(req, hits)}, nil
}

// DoBatch executes a batch of requests — kinds may be mixed freely — on the
// shared deterministic executor and returns one Result per request, in
// request order. Routing is per kind: a routed session plans each distinct
// kind once for the batch (probing any unprofiled contender with the kind's
// first requests), so a mixed workload can serve its range scans and its kNN
// gathers from different contenders.
//
// workers follows the repository-wide semantics (0 and 1 serial, > 1 that
// many workers, negative one per CPU). The output is deterministic and
// all-or-nothing: on success the results are identical — hit for hit, stat
// for stat — for any worker count; on cancellation DoBatch stops before
// completing the batch (in-flight requests abort at their next page read)
// and returns (nil, ctx.Err()).
func (s *Session) DoBatch(ctx context.Context, reqs []Request, workers int) ([]Result, error) {
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	// Observe cancellation before routing: planning unprofiled kinds runs
	// real calibration probes, which a dead context should not pay for.
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	// Route once per distinct kind, in first-appearance order (deterministic
	// probing: the kind's own requests are its calibration sample). Kinds are
	// a closed enum, so the per-kind state lives in fixed arrays indexed by
	// Kind — no per-batch maps — and the sample copies share one pooled
	// scratch slice, grouped contiguously by kind in batch order.
	sc := getBatchScratch(len(reqs))
	defer putBatchScratch(sc)
	var counts, off [numKinds]int
	for i := range reqs {
		counts[reqs[i].Kind]++
	}
	for k, lo := 1, 0; k < numKinds; k++ {
		off[k] = lo
		lo += counts[k]
	}
	var fill [numKinds]int
	var kindsArr [numKinds]Kind
	var firstOf [numKinds]int
	nk := 0
	for i := range reqs {
		k := reqs[i].Kind
		if fill[k] == 0 {
			kindsArr[nk] = k
			nk++
			firstOf[k] = i
		}
		sc.reqs[off[k]+fill[k]] = reqs[i]
		fill[k]++
	}
	kinds := kindsArr[:nk]
	var routed [numKinds]SpatialIndex
	var cacheHit, consulted [numKinds]bool
	for _, k := range kinds {
		routed[k], cacheHit[k], consulted[k] = s.route(k, sc.reqs[off[k]:off[k]+counts[k]])
	}

	results := make([]Result, len(reqs))
	for i := range reqs {
		results[i] = Result{Request: reqs[i], Index: routed[reqs[i].Kind].Name()}
	}
	sts, err := parallel.BatchCtx(ctx, workers, len(reqs),
		func(qi int, emit func(Hit)) (QueryStats, error) {
			return routed[reqs[qi].Kind].Do(ctx, reqs[qi], emit)
		},
		func(qi int, h Hit) { results[qi].Hits = append(results[qi].Hits, h) })
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].Stats = sts[i]
		results[i].Cursor = nextCursor(reqs[i], results[i].Hits)
	}
	// Record each kind's one routing consultation on the kind's first
	// request, so aggregated batch stats count exactly the consultations.
	for _, k := range kinds {
		planCacheStamp(&results[firstOf[k]].Stats, cacheHit[k], consulted[k])
	}
	if s.routingPlanner() != nil {
		for _, k := range kinds {
			var kindStats []QueryStats
			for i := range reqs {
				if reqs[i].Kind == k {
					kindStats = append(kindStats, sts[i])
				}
			}
			s.observe(routed[k].Name(), k, kindStats)
		}
	}
	return results, nil
}

// numKinds sizes the per-kind routing arrays of DoBatch: the Kind enum is
// closed (KindInvalid plus the four query kinds), and every request was
// validated before routing, so Kind values index the arrays directly.
const numKinds = 5

// batchScratch is DoBatch's pooled per-call scratch: the kind-grouped copy
// of the batch's requests the routing samples are cut from. Pooling it makes a
// batch's fixed overhead independent of batch size in steady state.
type batchScratch struct {
	reqs []Request
}

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// getBatchScratch returns scratch with its table sized to n.
func getBatchScratch(n int) *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.reqs) < n {
		sc.reqs = make([]Request, n)
	} else {
		sc.reqs = sc.reqs[:n]
	}
	return sc
}

// putBatchScratch clears and recycles the scratch; entries are zeroed so the
// pool does not retain the batch's cursor strings.
func putBatchScratch(sc *batchScratch) {
	clear(sc.reqs)
	sc.reqs = sc.reqs[:0]
	batchScratchPool.Put(sc)
}

// Index returns the snapshot view WithIndexName fixed (nil for a routed
// session).
func (s *Session) Index() SpatialIndex { return s.fixedView }

// Planner returns the pinned snapshot's planner, which routes this session's
// requests (nil for a fixed-view session).
func (s *Session) Planner() *Planner { return s.routingPlanner() }
