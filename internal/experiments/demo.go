package experiments

import (
	"context"
	"fmt"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/stats"
)

// RunSessionDemo builds a small model and serves a handful of requests of
// the named kind through the model's planner-routed Session —
// flatbench's -kind/-k/-radius front-door demo.
func RunSessionDemo(kindName string, k int, radius float64, workers int) (*stats.Table, error) {
	kind, err := engine.ParseKind(kindName)
	if err != nil {
		return nil, err
	}
	m, err := buildModel(96, 300, 23, workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: session demo: %w", err)
	}
	rng := newRand(23)
	vol := m.Circuit.Params.Volume
	c := vol.Center()
	span := vol.Size().Scale(0.25)
	reqs := make([]engine.Request, 6)
	for i := range reqs {
		p := geom.V(
			c.X+(rng.Float64()*2-1)*span.X,
			c.Y+(rng.Float64()*2-1)*span.Y,
			c.Z+(rng.Float64()*2-1)*span.Z,
		)
		switch kind {
		case engine.Range:
			reqs[i] = engine.RangeRequest(geom.BoxAround(p, radius))
		case engine.KNN:
			reqs[i] = engine.KNNRequest(p, k)
		case engine.Point:
			reqs[i] = engine.PointRequest(p)
		case engine.WithinDistance:
			reqs[i] = engine.WithinDistanceRequest(p, radius)
		}
	}
	results, err := m.DoBatch(context.Background(), reqs, 1)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(fmt.Sprintf("session demo: %d %s requests through the planner-routed front door", len(reqs), kind),
		"request", "routed to", "results", "pages", "index reads", "entries tested")
	for _, r := range results {
		tb.AddRow(r.Request.String(), r.Index, r.Stats.Results, r.Stats.PagesRead,
			r.Stats.IndexReads, r.Stats.EntriesTested)
	}
	return tb, nil
}

// RunPagingDemo issues one planner-routed request of the named kind with the
// given page size and walks its cursor chain — flatbench's -limit/-cursor
// demo. A non-empty cursor resumes from a token printed by a previous run:
// the demo model is deterministic, so tokens stay valid across invocations.
func RunPagingDemo(kindName string, k int, radius float64, limit int, cursor string, workers int) (*stats.Table, error) {
	kind, err := engine.ParseKind(kindName)
	if err != nil {
		return nil, err
	}
	if limit <= 0 {
		return nil, fmt.Errorf("experiments: paging demo: -limit must be positive, got %d", limit)
	}
	m, err := buildModel(96, 300, 23, workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: paging demo: %w", err)
	}
	c := m.Circuit.Params.Volume.Center()
	var req engine.Request
	switch kind {
	case engine.Range:
		req = engine.RangeRequest(geom.BoxAround(c, radius))
	case engine.KNN:
		req = engine.KNNRequest(c, k)
	case engine.Point:
		req = engine.PointRequest(c)
	case engine.WithinDistance:
		req = engine.WithinDistanceRequest(c, radius)
	default:
		return nil, fmt.Errorf("experiments: paging demo: unsupported kind %s", kind)
	}
	req.Limit = limit
	req.Cursor = engine.Cursor(cursor)

	tb := stats.NewTable(fmt.Sprintf("paging demo: %s in pages of %d through the Session front door"+
		"\n(each page stops reading once filled; pass the cursor to resume)", kind, limit),
		"page", "routed to", "hits", "pages read", "next cursor")
	const maxPages = 8
	for page := 1; ; page++ {
		res, err := m.Do(context.Background(), req)
		if err != nil {
			return nil, err
		}
		next := string(res.Cursor)
		if next == "" {
			next = "(exhausted)"
		}
		tb.AddRow(page, res.Index, len(res.Hits), res.Stats.PagesRead, next)
		if res.Cursor == "" || page == maxPages {
			break
		}
		req.Cursor = res.Cursor
	}
	return tb, nil
}
