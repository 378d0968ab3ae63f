package engine_test

// The cancellation sweep: every (kind × contender × surface) cell is canceled
// from inside its n-th page read and must come back as context.Canceled with
// nothing emitted and no further page read — cancellation is an ordinary
// error checked before every read, on every traversal. It replaces the
// ctxpage analyzer, which could only see that a loop mentioned the context.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// cancelSource counts page reads and fires a cancel func from inside the
// N-th — the mid-flight abort trigger of the cancellation tests. arm resets
// it for the next run (after <= 0 never fires).
type cancelSource struct {
	src    pager.PageSource
	mu     sync.Mutex
	reads  int
	after  int
	cancel context.CancelFunc
}

func (c *cancelSource) ReadPage(p pager.PageID) []int32 {
	c.mu.Lock()
	c.reads++
	if c.reads == c.after {
		c.cancel()
	}
	c.mu.Unlock()
	return c.src.ReadPage(p)
}

func (c *cancelSource) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads
}

func (c *cancelSource) arm(after int, cancel context.CancelFunc) {
	c.mu.Lock()
	c.reads, c.after, c.cancel = 0, after, cancel
	c.mu.Unlock()
}

// sweepContender is one contender of the sweep, reading through its own
// cancelSource.
type sweepContender struct {
	name string
	ix   engine.Paged
	tap  *cancelSource
}

// sweepContenders builds the sweep's contenders with small pages (every kind
// reads several): the three unsharded ones and the sharded one at 1 and 4
// shards.
func sweepContenders(t *testing.T, items []rtree.Item) []sweepContender {
	t.Helper()
	cs := []sweepContender{
		newSweepContender(t, "flat", engine.NewFlat(flat.Options{PageSize: 8}), items),
		newSweepContender(t, "rtree", engine.NewRTree(8), items),
		newSweepContender(t, "grid", engine.NewGrid(engine.GridOptions{PageSize: 8}), items),
	}
	for _, k := range []int{1, 4} {
		cs = append(cs, newSweepContender(t, fmt.Sprintf("sharded%d", k), engine.NewSharded(engine.ShardedOptions{
			Shards: k, Flat: flat.Options{PageSize: 8}}), items))
	}
	return cs
}

// newSweepContender builds ix over items and attaches its cancelSource.
func newSweepContender(t *testing.T, name string, ix engine.Paged, items []rtree.Item) sweepContender {
	t.Helper()
	if err := ix.Build(items); err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	tap := &cancelSource{src: ix.Store()}
	ix.SetSource(tap)
	return sweepContender{name, ix, tap}
}

// churnedView wraps base (already built over items) in a Dataset and commits
// one batch of updates, deletes and inserts, so the returned view serves a
// live overlay — delta chunks and tombstones — over base's pages. live is the
// epoch's item set, for the oracle.
func churnedView(t *testing.T, base engine.SpatialIndex, items []rtree.Item) (view engine.SpatialIndex, live []rtree.Item) {
	t.Helper()
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{base.Name()}, Bases: []engine.SpatialIndex{base}, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	tx := ds.Begin()
	for _, it := range items {
		switch {
		case it.ID%7 == 0:
			tx.Delete(it.ID)
		case it.ID%5 == 0:
			it.Box = geom.BoxAround(it.Box.Center().Add(geom.V(1, -1, 0.5)), 0.7)
			tx.Update(it.ID, it.Box)
			live = append(live, it)
		default:
			live = append(live, it)
		}
	}
	for i := 0; i < 40; i++ {
		box := geom.BoxAround(geom.V(48+float64(i%5), 48+float64(i%7), 50), 1.5)
		live = append(live, rtree.Item{ID: tx.Insert(box), Box: box})
	}
	snap, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if snap.DeltaEntries() == 0 || snap.TombstoneCount() == 0 {
		t.Fatalf("degenerate overlay: %d delta entries, %d tombstones", snap.DeltaEntries(), snap.TombstoneCount())
	}
	return snap.Index(base.Name()), live
}

// TestCancellationSweep is the table: kind {Range, KNN, Point, WithinDistance}
// × contender {flat, rtree, grid, sharded at 1 and 4 shards} × surface {raw
// Do, snapshot view over a live overlay, paginated Do on the raw contender and
// on the view}.
// Each cell first runs to completion (R reads, oracle-equal hits), then is
// canceled from inside read n for n early, mid-way and last-but-one: the
// error is context.Canceled, no hit was emitted, at most n+1 reads happened,
// and the same request on a fresh context equals the oracle again — the
// pooled scratch the aborted run held came back clean.
func TestCancellationSweep(t *testing.T) {
	items := streamItems(3000, 77)
	for _, c := range sweepContenders(t, items) {
		name, ix, tap := c.name, c.ix, c.tap
		view, live := churnedView(t, ix, items)
		surfaces := []struct {
			name   string
			ix     engine.SpatialIndex
			oracle []rtree.Item
			limit  int
		}{
			{"do", ix, items, 0},
			{"view", view, live, 0},
			// A limit past the result size: the page is the whole result, sliced
			// out of the full execution.
			{"page", ix, items, len(items) + 1},
			{"viewpage", view, live, len(live) + 1},
		}
		for _, sf := range surfaces {
			for _, req := range streamRequests() {
				want := oracleHits(sf.oracle, req)
				req.Limit = sf.limit
				t.Run(fmt.Sprintf("%s/%s/%s", name, sf.name, req.Kind), func(t *testing.T) {
					run := func(ctx context.Context) ([]engine.Hit, error) {
						var hits []engine.Hit
						_, err := sf.ix.Do(ctx, req, func(h engine.Hit) { hits = append(hits, h) })
						return hits, err
					}
					clean := func(when string) int {
						tap.arm(0, nil)
						hits, err := run(context.Background())
						if err != nil {
							t.Fatalf("%s: %v", when, err)
						}
						if !hitsEqual(hits, want) {
							t.Fatalf("%s: %d hits, oracle has %d", when, len(hits), len(want))
						}
						return tap.count()
					}
					total := clean("uncanceled run")
					if total < 4 {
						t.Fatalf("degenerate cell: the request reads only %d pages", total)
					}
					for _, n := range []int{1, total / 2, total - 1} {
						ctx, cancel := context.WithCancel(context.Background())
						tap.arm(n, cancel)
						hits, err := run(ctx)
						cancel()
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("canceled in read %d of %d: returned %v, want context.Canceled", n, total, err)
						}
						if len(hits) != 0 {
							t.Fatalf("canceled in read %d of %d: %d hits emitted", n, total, len(hits))
						}
						if got := tap.count(); got > n+1 {
							t.Fatalf("canceled in read %d of %d: %d reads observed", n, total, got)
						}
						clean(fmt.Sprintf("fresh run after the cancel in read %d", n))
					}
				})
			}
		}
	}
}

// TestCancellationSweepBatch runs the sweep's requests as one DoBatch per
// contender at 1 and 4 workers: canceled from inside read n the batch returns
// context.Canceled and no results, every worker stops at its next read (at
// most one more each), and the same batch on a fresh context equals the
// oracle. Under -race this is also the proof that a canceled slot on one
// worker goroutine shares nothing unsynchronized with the others.
func TestCancellationSweepBatch(t *testing.T) {
	items := streamItems(3000, 78)
	var reqs []engine.Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, streamRequests()...)
	}
	want := make([][]engine.Hit, len(reqs))
	for i, r := range reqs {
		want[i] = oracleHits(items, r)
	}
	for _, c := range sweepContenders(t, items) {
		ix, tap := c.ix, c.tap
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				sess := fixedSession(t, items, ix)
				clean := func(when string) int {
					tap.arm(0, nil)
					res, err := sess.DoBatch(context.Background(), reqs, workers)
					if err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					for j := range res {
						if !hitsEqual(res[j].Hits, want[j]) {
							t.Fatalf("%s: request %d (%s): %d hits, oracle has %d",
								when, j, reqs[j], len(res[j].Hits), len(want[j]))
						}
					}
					return tap.count()
				}
				total := clean("uncanceled batch")
				n := total / 3
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				tap.arm(n, cancel)
				res, err := sess.DoBatch(ctx, reqs, workers)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled in read %d of %d: returned %v, want context.Canceled", n, total, err)
				}
				if res != nil {
					t.Fatalf("canceled in read %d of %d: %d results returned", n, total, len(res))
				}
				if got := tap.count(); got > n+workers {
					t.Fatalf("canceled in read %d of %d: %d reads observed with %d workers", n, total, got, workers)
				}
				clean("fresh batch after the cancel")
			})
		}
	}
}
