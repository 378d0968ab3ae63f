package scout

import (
	"testing"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/prefetch"
	"neurospatial/internal/race"
)

// TestPredictAllocs: in steady state — its scratch grown by one walk — a step
// of Predict allocates at most once, the slice it returns.
func TestPredictAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	f := buildFixture(t, 10)
	pages := make([]pager.PageID, 40)
	for i := range pages {
		pages[i] = pager.PageID(i * 7 % 64)
	}
	ctx := &prefetch.Context{
		Index:   fixedPages{pages: pages},
		Segment: func(id int32) geom.Segment { return f.circ.Elements[id].Shape },
	}
	boxes := f.boxes()
	results := make([][]int32, len(boxes))
	for i, q := range boxes {
		f.index.Query(q, nil, func(id int32) { results[i] = append(results[i], id) })
	}
	for _, tol := range []float64{0, 0.5} {
		s := New(Options{Tolerance: tol})
		for i, q := range boxes {
			ctx.History = boxes[:i+1]
			s.Predict(ctx, q, results[i], 16)
		}
		s.Reset()
		for i, q := range boxes {
			ctx.History = boxes[:i+1]
			allocs := testing.AllocsPerRun(1, func() { s.Predict(ctx, q, results[i], 16) })
			if allocs > 1 {
				t.Errorf("tolerance %g, step %d (%d results): %v allocs, want at most 1", tol, i, len(results[i]), allocs)
			}
		}
	}
}
