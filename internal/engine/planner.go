package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"neurospatial/internal/stats"
)

// Planner routes requests and request batches to one of a set of
// SpatialIndex contenders using per-(index, kind) cost statistics:
// an index that wins range scans can lose kNN gathers, so every query kind
// keeps its own history and mixed workloads route per request. Costs come
// from two sources, both fed through stats.Running accumulators:
//
//   - learned: every executed batch reports its observed QueryStats back via
//     ObserveKind, so the planner's estimate of an (index, kind) pair
//     sharpens with use;
//   - probed: with no history for a pair, planning calibrates by executing a
//     small deterministic sample of the batch (the first probeQueries
//     requests, results discarded) on that index and charging its Cost().
//
// Routing is deterministic: the index with the lowest estimated per-query
// cost wins, ties broken by registration order.
//
// PlanKind, PlanKindCached and ObserveKind are safe for concurrent use (the
// indexes themselves are read-only after Build), with each other and with
// queries on the same contenders: a calibration probe is an ordinary request
// that reads cold, and rewires nothing. Paged.SetSource on a contender is
// configuration, not execution: call it before sharing the index across
// goroutines.
type Planner struct {
	indexes []SpatialIndex
	mu      sync.Mutex                    //neurospatial:lock planner.state
	learned map[plannerKey]*stats.Running // per-query Cost() history
	probes  map[plannerKey]chan struct{}  // in-flight probe latches

	// epoch is the dataset epoch this planner serves (0 for free-standing
	// planners); it is part of every plan-cache key, so entries cached for
	// one epoch can never route another's requests even if a planner is ever
	// shared across epochs. plans caches routing decisions by
	// (epoch, kind, shape signature) — see PlanKindCached.
	epoch int64
	plans map[planCacheKey]SpatialIndex

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	probesRun   atomic.Int64
}

// planCacheKey identifies one cached routing decision: the dataset epoch the
// planner serves, the query kind, and the bucketed shape signature of the
// request (see planSig). Keying by bucketed shape rather than the exact
// request lets a repeated-shape workload (the common case: many queries of
// similar extent) hit one entry while queries of genuinely different
// selectivity still plan separately.
type planCacheKey struct {
	epoch int64
	kind  Kind
	sig   int8
}

// planSig buckets the shape of a kind's calibration sample into a small
// signature: the rounded log2 of the magnitude that drives the kind's
// selectivity — box volume for Range, K for KNN, radius for WithinDistance —
// and 0 for Point (a point stab has no extent). Empty samples share the
// catch-all bucket -64, which is also where degenerate (zero/negative)
// magnitudes land.
func planSig(kind Kind, sample []Request) int8 {
	if len(sample) == 0 {
		return -64
	}
	r := sample[0]
	var v float64
	switch kind {
	case Range:
		d := r.Box.Max.Sub(r.Box.Min)
		v = d.X * d.Y * d.Z
	case KNN:
		v = float64(r.K)
	case WithinDistance:
		v = r.Radius
	default: // Point
		return 0
	}
	return logBucket(v)
}

// logBucket clamps round(log2(v)) to [-63, 63], with -64 for v <= 0 and NaN.
func logBucket(v float64) int8 {
	if !(v > 0) {
		return -64
	}
	b := math.Round(math.Log2(v))
	switch {
	case b < -63:
		return -63
	case b > 63:
		return 63
	}
	return int8(b)
}

// probeQueries is the calibration sample size per unprofiled (index, kind)
// pair.
const probeQueries = 3

// plannerKey identifies one cost-history accumulator: which contender, for
// which query kind.
type plannerKey struct {
	name string
	kind Kind
}

// NewPlanner returns a planner over the given contenders, in priority order
// (earlier indexes win cost ties).
func NewPlanner(indexes ...SpatialIndex) *Planner {
	return &Planner{
		indexes: indexes,
		learned: make(map[plannerKey]*stats.Running),
		probes:  make(map[plannerKey]chan struct{}),
		plans:   make(map[planCacheKey]SpatialIndex),
	}
}

// SetEpoch declares the dataset epoch this planner serves. Every cached plan
// is keyed by epoch, so a change invalidates all previously cached decisions
// at once (the map is also cleared — stale epochs' entries are unreachable
// and would only hold memory). Dataset snapshots call it at construction;
// free-standing planners stay at epoch 0.
func (p *Planner) SetEpoch(epoch int64) {
	p.mu.Lock()
	if p.epoch != epoch {
		p.epoch = epoch
		clear(p.plans)
	}
	p.mu.Unlock()
}

// inheritCosts seeds p's cost history with a copy of from's. Dataset commits
// and compactions call it on the child epoch's planner before publishing it:
// epochs that share a base have the same cost inputs (QueryStats.Cost counts
// base work only), and a compaction's bases are rebuilt over nearly the same
// items, so the child plans from the parent's history instead of re-probing —
// and never probes a contender the compaction deferred.
func (p *Planner) inheritCosts(from *Planner) {
	from.mu.Lock()
	defer from.mu.Unlock()
	for key, acc := range from.learned {
		cp := *acc
		p.learned[key] = &cp
	}
}

// PlanKindCached is PlanKind behind the per-epoch plan cache: a repeat of an
// already-planned (epoch, kind, shape bucket) returns the cached decision
// without consulting cost history or probing; a miss delegates to PlanKind
// and caches the winner. The boolean reports a cache hit. A cached decision
// is exactly as deterministic as PlanKind's: the cache can only replay a
// decision PlanKind made for the same epoch and shape bucket.
//
// Cached decisions intentionally do not chase later ObserveKind updates
// within an epoch: routing flapping mid-workload would make batch output
// depend on execution history more than it already does, and the cache resets
// at every epoch anyway (Commit and Compact both advance it).
func (p *Planner) PlanKindCached(kind Kind, sample []Request) (Decision, bool) {
	p.mu.Lock()
	key := planCacheKey{p.epoch, kind, planSig(kind, sample)}
	ix := p.plans[key]
	p.mu.Unlock()
	if ix != nil {
		p.cacheHits.Add(1)
		return Decision{Kind: kind, Index: ix}, true
	}
	p.cacheMisses.Add(1)
	d := p.PlanKind(kind, sample)
	if d.Index != nil {
		p.mu.Lock()
		// Key under the current epoch, not the pre-plan one: if SetEpoch
		// raced the planning, the decision is cached for the epoch it will
		// serve next, and the worst case is one extra miss.
		p.plans[planCacheKey{p.epoch, kind, key.sig}] = d.Index
		p.mu.Unlock()
	}
	return d, false
}

// PlanCacheStats reports the plan cache's lifetime hit and miss counts.
func (p *Planner) PlanCacheStats() (hits, misses int64) {
	return p.cacheHits.Load(), p.cacheMisses.Load()
}

// ProbesRun reports how many calibration probes this planner has executed —
// the work the plan cache exists to avoid repeating.
func (p *Planner) ProbesRun() int64 { return p.probesRun.Load() }

// Decision records one routing choice and the evidence behind it.
type Decision struct {
	// Index is the chosen contender.
	Index SpatialIndex
	// Kind is the query kind the decision was made for.
	Kind Kind
	// CostPerQuery is the estimated per-query I/O cost of every contender.
	CostPerQuery map[string]float64
	// Probed lists the contenders whose estimate came from a fresh
	// calibration probe rather than learned history.
	Probed []string
}

// String renders the decision for logs and demo panels.
func (d Decision) String() string {
	if d.Index == nil {
		return "route -> none (no contenders)"
	}
	names := make([]string, 0, len(d.CostPerQuery))
	for n := range d.CostPerQuery {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("route %s -> %s (", d.Kind, d.Index.Name())
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %.1f", n, d.CostPerQuery[n])
	}
	return s + " est. reads/query)"
}

// PlanKind estimates the per-query cost of each contender for requests of
// one kind (using the kind's own cost history, probing with the sample's
// first probeQueries requests where history is missing) and picks the
// cheapest. The sample requests should all be of the given kind; others are
// ignored by the probe. Probe executions update the learned history, so later
// plans on similar workloads skip the probe. Concurrent first plans probe each
// unprofiled index exactly once: a per-(index, kind) latch makes the
// learn-or-probe step singleflight, so calibration history is never skewed by
// duplicate probes.
//
// An empty sample cannot be probed, so it gets a deterministic default
// decision with no side effects: contenders are costed from learned history
// where any exists, the cheapest profiled contender wins, and with no
// history at all the first registered index is chosen (registration order is
// the documented tie-break).
func (p *Planner) PlanKind(kind Kind, sample []Request) Decision {
	d := Decision{Kind: kind, CostPerQuery: make(map[string]float64, len(p.indexes))}
	if len(sample) == 0 {
		for _, ix := range p.indexes {
			cost, ok := p.learnedCost(ix.Name(), kind)
			if !ok {
				continue
			}
			d.CostPerQuery[ix.Name()] = cost
			if d.Index == nil || cost < d.CostPerQuery[d.Index.Name()] {
				d.Index = ix
			}
		}
		if d.Index == nil && len(p.indexes) > 0 {
			d.Index = p.indexes[0]
		}
		return d
	}
	for _, ix := range p.indexes {
		name := ix.Name()
		cost, ok := p.learnedCost(name, kind)
		if !ok {
			if p.probeOnce(ix, kind, sample) {
				d.Probed = append(d.Probed, name)
			}
			cost, ok = p.learnedCost(name, kind)
		}
		if !ok {
			// Unreachable with a non-empty sample (a probe always observes at
			// least one query), kept as a guard: never fabricate a 0 cost.
			continue
		}
		d.CostPerQuery[name] = cost
		if d.Index == nil || cost < d.CostPerQuery[d.Index.Name()] {
			d.Index = ix
		}
	}
	if d.Index == nil && len(p.indexes) > 0 {
		d.Index = p.indexes[0]
	}
	return d
}

// learnedCost reads an (index, kind) pair's mean observed cost under the
// lock.
func (p *Planner) learnedCost(name string, kind Kind) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	acc := p.learned[plannerKey{name, kind}]
	if acc == nil || acc.N() == 0 {
		return 0, false
	}
	return acc.Mean(), true
}

// probeOnce runs the calibration probe for an unprofiled (index, kind) pair
// exactly once across concurrent plans: the first caller probes while later
// callers wait on the latch and then read the learned history. It reports
// whether this call executed the probe.
func (p *Planner) probeOnce(ix SpatialIndex, kind Kind, sample []Request) bool {
	key := plannerKey{ix.Name(), kind}
	p.mu.Lock()
	if acc := p.learned[key]; acc != nil && acc.N() > 0 {
		p.mu.Unlock()
		return false
	}
	if ch, inflight := p.probes[key]; inflight {
		p.mu.Unlock()
		<-ch
		return false
	}
	ch := make(chan struct{})
	p.probes[key] = ch
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.probes, key)
		p.mu.Unlock()
		close(ch)
	}()
	p.probesRun.Add(1)
	p.probe(ix, kind, sample)
	return true
}

// probe runs the calibration sample on one index, discarding hits. The
// sample reads cold (Request.cold): the engine contenders — and snapshot
// views and shards, which hand the flag to their bases — resolve each call's
// page source from the request, so an attached PageSource (a shared
// BufferPool under measurement, say) sees none of the probe's reads, and
// planning never perturbs the pool contents or counters the experiments
// report. Nothing on the index is touched, so probes need no exclusion from
// each other or from concurrent queries.
func (p *Planner) probe(ix SpatialIndex, kind Kind, sample []Request) {
	var sts []QueryStats
	for _, r := range sample {
		if r.Kind != kind {
			continue
		}
		r.cold = true
		st, err := ix.Do(context.Background(), r, nil)
		if err != nil {
			continue // invalid sample requests contribute no history
		}
		sts = append(sts, st)
		if len(sts) == probeQueries {
			break
		}
	}
	p.ObserveKind(ix.Name(), kind, sts)
}

// ObserveKind folds executed per-query stats of one kind into the
// (index, kind) pair's learned history.
func (p *Planner) ObserveKind(name string, kind Kind, sts []QueryStats) {
	key := plannerKey{name, kind}
	p.mu.Lock()
	defer p.mu.Unlock()
	cost := p.learned[key]
	if cost == nil {
		cost = &stats.Running{}
		p.learned[key] = cost
	}
	for i := range sts {
		cost.Add(sts[i].Cost())
	}
}
