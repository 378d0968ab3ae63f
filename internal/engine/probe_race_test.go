package engine_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// TestProbeVsQueryRace: on every contender, with a PageSource attached, a
// planner-routed session serves a profiled Range workload while first-time
// KNN / Point / WithinDistance requests make the planner probe the same
// instance. A probe reads cold by carrying that on its requests, not by
// detaching and restoring the index's source, so under -race the two
// goroutines share no written state — and every page a real request counted
// went through the attached source: none fell into a detached window, and no
// probe read leaked into it.
func TestProbeVsQueryRace(t *testing.T) {
	items := testItems(t, 10, 4242)
	ctx := context.Background()
	rangeReq := engine.RangeRequest(geom.Box(geom.V(0, 0, 0), geom.V(50, 50, 50)))
	firstTime := []engine.Request{
		engine.KNNRequest(geom.V(10, 10, 10), 5),
		engine.PointRequest(geom.V(25, 25, 25)),
		engine.WithinDistanceRequest(geom.V(40, 40, 40), 15),
	}
	for _, ix := range buildIndexes(t, items) {
		ix := ix.(engine.Paged)
		t.Run(ix.Name(), func(t *testing.T) {
			tap := pager.NewCounting(ix.Store())
			ix.SetSource(tap)
			sess, err := engine.Open(engine.WithPlanner(engine.NewPlanner(ix)))
			if err != nil {
				t.Fatal(err)
			}
			// Profile Range so the loop below never probes.
			if _, err := sess.Do(ctx, rangeReq); err != nil {
				t.Fatal(err)
			}
			tap.Reset()

			var counted atomic.Int64 // PagesRead over every real request
			do := func(req engine.Request) bool {
				res, err := sess.Do(ctx, req)
				if err != nil {
					t.Error(err)
					return false
				}
				counted.Add(res.Stats.PagesRead)
				return true
			}
			var wg sync.WaitGroup
			probed := make(chan struct{})
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-probed:
						if i >= 50 {
							return
						}
					default:
					}
					if !do(rangeReq) {
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				defer close(probed)
				for _, req := range firstTime {
					if !do(req) {
						return
					}
				}
			}()
			wg.Wait()
			if p := sess.Planner().ProbesRun(); p != 4 {
				t.Fatalf("planner ran %d probes, want one per kind", p)
			}
			if got, want := tap.Reads(), counted.Load(); got != want {
				t.Errorf("attached source saw %d reads, the requests' stats count %d", got, want)
			}
		})
	}
}
