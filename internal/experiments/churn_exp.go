package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"neurospatial/internal/circuit"
	"neurospatial/internal/core"
	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/stats"
)

// E10Config parameterizes the interleaved update/query experiment: the
// growing-tissue regime of the paper's motivation, where the model mutates
// while queries keep arriving. Writers apply batched mutations through the
// model's Dataset (Begin/Insert/Delete/Update/Commit), readers query the
// Session front door, and the runner verifies the two guarantees of the
// mutable redesign on every round: worker-count-invariant output, and
// snapshot isolation (a session pinned before the churn keeps replaying its
// epoch bit-identically). It is not a figure of the paper; it extends the
// reproduction along the ROADMAP's ever-growing-model axis (cf. answering
// queries under updates, PAPERS.md).
type E10Config struct {
	// Neurons is the model size.
	Neurons int
	// Edge is the volume edge.
	Edge float64
	// Rounds is the number of mutate-then-query rounds per update rate.
	Rounds int
	// Ops is the mutation batch size per round at update rate 1.0 (~40%
	// inserts, ~30% deletes, ~30% box updates).
	Ops int
	// Requests is the per-round query batch size; kinds are interleaved
	// round-robin (range, knn, point, within, ...).
	Requests int
	// QueryRadius is the range-query half-extent.
	QueryRadius float64
	// K is the kNN neighbor count.
	K int
	// WithinRadius is the within-distance sphere radius.
	WithinRadius float64
	// UpdateRates sweeps the fraction of Ops applied per round; 0 is the
	// read-only baseline.
	UpdateRates []float64
	// CompactMin and CompactRatio tune the dataset's auto-compaction
	// trigger (zero keeps the engine defaults).
	CompactMin   int
	CompactRatio float64
	// Seed drives construction, mutation and request placement.
	Seed int64
	// Workers is the circuit-construction worker count (repository-wide
	// semantics; the Default* configs select -1).
	Workers int
}

// DefaultE10 returns the configuration used in EXPERIMENTS.md.
func DefaultE10() E10Config {
	return E10Config{
		Neurons:      96,
		Edge:         300,
		Rounds:       5,
		Ops:          64,
		Requests:     48,
		QueryRadius:  25,
		K:            8,
		WithinRadius: 20,
		UpdateRates:  []float64{0, 0.25, 1},
		CompactMin:   96,
		CompactRatio: 0.01,
		Seed:         37,
		Workers:      -1,
	}
}

// E10Row is one update-rate point of the sweep.
type E10Row struct {
	// Rate is the update rate (fraction of Ops applied per round).
	Rate float64
	// OpsApplied is the total mutation count over the rounds.
	OpsApplied int64
	// MutateTime is the total wall-clock commit time (the per-update
	// maintenance cost).
	MutateTime time.Duration
	// QueryTime is the total serial query time over the rounds.
	QueryTime time.Duration
	// PagesRead and Results are the query batches' totals.
	PagesRead, Results int64
	// DeltaEntries and Tombstones are the overlay-work totals the query
	// stats reported — the read-side price of the pending updates.
	DeltaEntries, Tombstones int64
	// Epoch is the dataset's final epoch; Compactions counts how many times
	// the overlay was folded (automatic ones included).
	Epoch, Compactions int
	// Cow is the cumulative copy-on-write layout accounting: shared pages
	// are maintenance the commits did NOT pay.
	Cow pager.CowStats
}

// E10RoutingRow is one (update rate, kind) routing decision after the sweep.
type E10RoutingRow struct {
	// Rate is the update rate of the run.
	Rate float64
	// Kind is the query kind.
	Kind engine.Kind
	// Index names the contender the snapshot planner routes the kind to.
	Index string
	// Cost is its estimated per-query cost.
	Cost float64
}

// E10Result bundles the sweep with the update-rate × kind routing table.
type E10Result struct {
	// Rows holds one row per update rate.
	Rows []E10Row
	// Routing holds the per-kind decision of each rate's final snapshot.
	Routing []E10RoutingRow
}

// churnModel builds the experiment model with the dataset compaction tuning.
func churnModel(cfg E10Config) (*core.Model, error) {
	p := circuit.DefaultParams()
	p.Neurons = cfg.Neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(cfg.Edge, cfg.Edge, cfg.Edge))
	p.Seed = cfg.Seed
	p.Workers = cfg.Workers
	opts := core.DefaultOptions()
	opts.DatasetCompactMin = cfg.CompactMin
	opts.DatasetCompactRatio = cfg.CompactRatio
	return core.BuildModel(p, opts)
}

// churnRequests builds one round's deterministic mixed-kind batch.
func churnRequests(vol geom.AABB, cfg E10Config, rng *rand.Rand) []engine.Request {
	c := vol.Center()
	span := vol.Size().Scale(0.25)
	out := make([]engine.Request, cfg.Requests)
	for i := range out {
		p := geom.V(
			c.X+(rng.Float64()*2-1)*span.X,
			c.Y+(rng.Float64()*2-1)*span.Y,
			c.Z+(rng.Float64()*2-1)*span.Z,
		)
		switch i % 4 {
		case 0:
			out[i] = engine.RangeRequest(geom.BoxAround(p, cfg.QueryRadius))
		case 1:
			out[i] = engine.KNNRequest(p, cfg.K)
		case 2:
			out[i] = engine.PointRequest(p)
		case 3:
			out[i] = engine.WithinDistanceRequest(p, cfg.WithinRadius)
		}
	}
	return out
}

// churnBatch applies one mutation batch through the model, tracking the live
// ID set for delete/update targeting. It returns the number of ops applied.
func churnBatch(m *core.Model, rng *rand.Rand, live *[]int32, ops int, vol geom.AABB) (int, error) {
	if ops <= 0 {
		return 0, nil
	}
	applied := 0
	deleted := make(map[int32]bool)
	var inserted []int32
	_, err := m.Mutate(func(tx *engine.Tx) error {
		used := make(map[int32]bool)
		for i := 0; i < ops; i++ {
			k := rng.Intn(10)
			switch {
			case k < 4 || len(*live) == 0:
				span := vol.Size()
				p := geom.V(
					vol.Min.X+rng.Float64()*span.X,
					vol.Min.Y+rng.Float64()*span.Y,
					vol.Min.Z+rng.Float64()*span.Z,
				)
				inserted = append(inserted, tx.Insert(geom.BoxAround(p, 1+rng.Float64()*4)))
				applied++
			case k < 7:
				id := (*live)[rng.Intn(len(*live))]
				if used[id] {
					continue
				}
				used[id] = true
				tx.Delete(id)
				deleted[id] = true
				applied++
			default:
				id := (*live)[rng.Intn(len(*live))]
				if used[id] {
					continue
				}
				used[id] = true
				span := vol.Size()
				p := geom.V(
					vol.Min.X+rng.Float64()*span.X,
					vol.Min.Y+rng.Float64()*span.Y,
					vol.Min.Z+rng.Float64()*span.Z,
				)
				tx.Update(id, geom.BoxAround(p, 1+rng.Float64()*4))
				applied++
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	kept := (*live)[:0]
	for _, id := range *live {
		if !deleted[id] {
			kept = append(kept, id)
		}
	}
	*live = append(kept, inserted...)
	return applied, nil
}

// RunE10 executes the update-rate sweep. For each rate it builds a fresh
// model, pins one session before any churn, then alternates mutation batches
// with mixed query batches. Every round the runner enforces (failing
// otherwise): parallel output identical to serial, and the pre-churn pinned
// session replaying its epoch-0 results bit-identically.
func RunE10(cfg E10Config) (*E10Result, error) {
	res := &E10Result{}
	for _, rate := range cfg.UpdateRates {
		m, err := churnModel(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: E10: %w", err)
		}
		ctx := context.Background()
		vol := m.Circuit.Params.Volume
		rng := newRand(cfg.Seed + int64(rate*1000))
		live := make([]int32, len(m.Circuit.Elements))
		for i := range live {
			live[i] = int32(i)
		}

		// The isolation witness: pinned before any churn.
		pinned, err := m.OpenSession()
		if err != nil {
			return nil, fmt.Errorf("experiments: E10: %w", err)
		}
		witnessReqs := churnRequests(vol, cfg, newRand(cfg.Seed))
		witness, err := pinned.DoBatch(ctx, witnessReqs, 1)
		if err != nil {
			pinned.Close()
			return nil, fmt.Errorf("experiments: E10 witness: %w", err)
		}

		row := E10Row{Rate: rate}
		for round := 0; round < cfg.Rounds; round++ {
			start := time.Now()
			applied, err := churnBatch(m, rng, &live, int(rate*float64(cfg.Ops)), vol)
			if err != nil {
				pinned.Close()
				return nil, fmt.Errorf("experiments: E10 rate=%.2f round %d mutate: %w", rate, round, err)
			}
			row.MutateTime += time.Since(start)
			row.OpsApplied += int64(applied)

			reqs := churnRequests(vol, cfg, rng)
			start = time.Now()
			serial, err := m.Session().DoBatch(ctx, reqs, 1)
			row.QueryTime += time.Since(start)
			if err != nil {
				pinned.Close()
				return nil, fmt.Errorf("experiments: E10 rate=%.2f round %d query: %w", rate, round, err)
			}
			parallel, err := m.Session().DoBatch(ctx, reqs, 4)
			if err != nil {
				pinned.Close()
				return nil, fmt.Errorf("experiments: E10 rate=%.2f round %d parallel: %w", rate, round, err)
			}
			for i := range serial {
				if len(serial[i].Hits) != len(parallel[i].Hits) {
					pinned.Close()
					return nil, fmt.Errorf("experiments: E10 rate=%.2f round %d request %d: workers diverged",
						rate, round, i)
				}
				for j := range serial[i].Hits {
					if serial[i].Hits[j] != parallel[i].Hits[j] {
						pinned.Close()
						return nil, fmt.Errorf("experiments: E10 rate=%.2f round %d request %d hit %d: workers diverged",
							rate, round, i, j)
					}
				}
				row.PagesRead += serial[i].Stats.PagesRead
				row.Results += serial[i].Stats.Results
				row.DeltaEntries += serial[i].Stats.DeltaEntries
				row.Tombstones += serial[i].Stats.Tombstones
			}

			// Snapshot isolation: the pre-churn session must replay epoch 0.
			replay, err := pinned.DoBatch(ctx, witnessReqs, 2)
			if err != nil {
				pinned.Close()
				return nil, fmt.Errorf("experiments: E10 rate=%.2f round %d witness replay: %w", rate, round, err)
			}
			for i := range replay {
				if len(replay[i].Hits) != len(witness[i].Hits) {
					pinned.Close()
					return nil, fmt.Errorf("experiments: E10 rate=%.2f round %d: pinned session drifted on request %d",
						rate, round, i)
				}
				for j := range replay[i].Hits {
					if replay[i].Hits[j] != witness[i].Hits[j] {
						pinned.Close()
						return nil, fmt.Errorf("experiments: E10 rate=%.2f round %d: pinned session drifted on request %d hit %d",
							rate, round, i, j)
					}
				}
			}
		}
		pinned.Close()

		st := m.Dataset.Stats()
		row.Epoch = st.Epoch
		row.Compactions = int(st.Compactions)
		row.Cow = st.Cow
		res.Rows = append(res.Rows, row)

		// The update-rate × kind routing table, from the final snapshot's
		// planner (empty sample: learned history only, no fresh probes).
		for _, kind := range engine.Kinds() {
			d := m.Session().Planner().PlanKind(kind, nil)
			rr := E10RoutingRow{Rate: rate, Kind: kind}
			if d.Index != nil {
				rr.Index = d.Index.Name()
				rr.Cost = d.CostPerQuery[rr.Index]
			}
			res.Routing = append(res.Routing, rr)
		}
	}
	return res, nil
}

// E10Table renders the update-rate sweep.
func E10Table(rows []E10Row) *stats.Table {
	tb := stats.NewTable("E10 (north star): interleaved updates and queries through the mutable Dataset"+
		"\n(every round: workers-invariant output; pre-churn pinned session replays its epoch bit-identically)"+
		"\n(delta tested counts the entries of overlay chunks a request's predicate admits, not the whole overlay;"+
		" benchgate does not gate its delta_tested headline)",
		"rate", "ops", "mutate time", "query time", "pages", "results", "delta tested", "tombs filtered",
		"epoch", "compactions", "layout shared/patched/appended")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%.2f", r.Rate),
			r.OpsApplied,
			stats.Dur(r.MutateTime),
			stats.Dur(r.QueryTime),
			r.PagesRead,
			r.Results,
			r.DeltaEntries,
			r.Tombstones,
			r.Epoch,
			r.Compactions,
			fmt.Sprintf("%d/%d/%d", r.Cow.Shared, r.Cow.Patched, r.Cow.Appended),
		)
	}
	return tb
}

// E10RoutingTable renders the update-rate × kind routing table.
func E10RoutingTable(res *E10Result) *stats.Table {
	tb := stats.NewTable("E10 routing: snapshot planner decision per kind at each update rate",
		"rate", "kind", "routed to", "est. reads/query")
	for _, r := range res.Routing {
		tb.AddRow(fmt.Sprintf("%.2f", r.Rate), r.Kind.String(), r.Index, fmt.Sprintf("%.1f", r.Cost))
	}
	return tb
}

// RunChurnDemo builds a small model, applies the given number of mutation
// batches, and reports the dataset's maintenance state plus a mixed query
// batch served from the churned snapshot — the cmd drivers' -churn panel.
func RunChurnDemo(batches, workers int) ([]*stats.Table, error) {
	cfg := DefaultE10()
	cfg.Neurons = 48
	cfg.Rounds = batches
	cfg.Workers = workers
	m, err := churnModel(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: churn demo: %w", err)
	}
	ctx := context.Background()
	vol := m.Circuit.Params.Volume
	rng := newRand(cfg.Seed)
	live := make([]int32, len(m.Circuit.Elements))
	for i := range live {
		live[i] = int32(i)
	}
	for b := 0; b < batches; b++ {
		if _, err := churnBatch(m, rng, &live, cfg.Ops, vol); err != nil {
			return nil, fmt.Errorf("experiments: churn demo batch %d: %w", b, err)
		}
	}
	st := m.Dataset.Stats()
	maint := stats.NewTable(fmt.Sprintf("dataset after %d mutation batches", batches),
		"epoch", "live", "delta", "tombstones", "commits", "compactions",
		"inserts", "deletes", "updates", "layout shared/patched/appended")
	maint.AddRow(st.Epoch, st.Live, st.DeltaEntries, st.Tombstones, st.Commits, st.Compactions,
		st.Inserts, st.Deletes, st.Updates,
		fmt.Sprintf("%d/%d/%d", st.Cow.Shared, st.Cow.Patched, st.Cow.Appended))

	reqs := churnRequests(vol, cfg, rng)[:8]
	results, err := m.Session().DoBatch(ctx, reqs, 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: churn demo queries: %w", err)
	}
	qt := stats.NewTable("mixed requests served from the churned snapshot",
		"request", "routed to", "results", "pages", "delta tested", "tombs filtered")
	for _, r := range results {
		qt.AddRow(r.Request.String(), r.Index, r.Stats.Results, r.Stats.PagesRead,
			r.Stats.DeltaEntries, r.Stats.Tombstones)
	}
	return []*stats.Table{maint, qt}, nil
}
