// Command neurodemo is the terminal rendition of the SIGMOD'13 demonstration
// itself: three "stations", one per technique, with ASCII visualizations
// standing in for the tool's 3-D views.
//
//	Station 1 (§2.2, Figures 2-4): a range query is placed on the model;
//	FLAT and the R-tree execute it side by side; FLAT's crawl order is
//	rendered by labeling each page with the order it was retrieved.
//
//	Station 2 (§3.2, Figure 6): a walkthrough follows a neuron branch; the
//	positions visited are drawn, and the prefetching statistics panel is
//	printed for every method.
//
//	Station 3 (§4.2, Figure 7): the synapse join runs and the discovered
//	synapse locations are highlighted on the model projection.
//
// Usage:
//
//	go run ./cmd/neurodemo [-neurons N] [-station 1|2|3] [-workers W]
//	                       [-kind range|knn|point|within] [-k K] [-radius R]
//	                       [-churn B]
//
// Station 1 ends with the engine's Session front door: the query the -kind
// flag selects (default knn) runs planner-routed through engine.Session and
// its per-request statistics are printed — the "one front door, any query
// kind" face of the unified engine. With -churn B, station 1 additionally
// demonstrates the mutable Dataset lifecycle: B batched mutations are
// committed while a pre-churn session stays pinned to its epoch, and the
// pinned-vs-current answers are printed side by side (snapshot isolation,
// live).
//
// Contradictory flag combinations (-k without -kind knn, -radius with a
// kind that has no radius, -station outside 1..3) are rejected with a
// one-line usage error instead of being silently ignored.
//
// The -workers flag follows the repository-wide convention (see README):
// 0 or 1 run serially, values > 1 use that many workers, negative values
// use one worker per CPU. It controls circuit construction; the model is
// worker-count-invariant.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"time"

	"neurospatial/internal/circuit"
	"neurospatial/internal/core"
	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/stats"
	"neurospatial/internal/viz"
)

const canvasW, canvasH = 72, 30

func main() {
	log.SetFlags(0)
	log.SetPrefix("neurodemo: ")
	neurons := flag.Int("neurons", 48, "neurons in the model")
	station := flag.Int("station", 0, "run a single station (1, 2 or 3); 0 runs all")
	workers := flag.Int("workers", -1, "circuit-construction workers (0 or 1: serial; negative: one per CPU)")
	kindName := flag.String("kind", "knn", "query kind of station 1's Session showcase (range, knn, point, within)")
	k := flag.Int("k", 8, "with -kind knn: the neighbor count")
	radius := flag.Float64("radius", 20, "with -kind range/within: the query radius")
	churn := flag.Int("churn", 0, "station 1: also demo the mutable Dataset with this many mutation batches")
	flag.Parse()

	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "neurodemo: %s\n", fmt.Sprintf(format, args...))
		os.Exit(2)
	}
	if set["k"] && *kindName != "knn" {
		usageErr("-k applies only to -kind knn (got -kind %q)", *kindName)
	}
	if set["radius"] && *kindName != "range" && *kindName != "within" {
		usageErr("-radius applies only to -kind range or within (got -kind %q)", *kindName)
	}
	if set["station"] && (*station < 0 || *station > 3) {
		usageErr("-station must be 1, 2 or 3 (0 runs all; got %d)", *station)
	}
	if set["churn"] && *churn <= 0 {
		usageErr("-churn needs a positive batch count (got %d)", *churn)
	}

	p := circuit.DefaultParams()
	p.Neurons = *neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(300, 300, 300))
	p.Workers = *workers
	p.Layers = circuit.CorticalLayers()
	model, err := core.BuildModel(p, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== neurodemo: %d neurons, %d segments, cortical layer profile ===\n\n",
		*neurons, len(model.Circuit.Elements))

	if *station == 0 || *station == 1 {
		station1(model, *kindName, *k, *radius)
		if *churn > 0 {
			station1Churn(model, *churn)
		}
	}
	if *station == 0 || *station == 2 {
		station2(model)
	}
	if *station == 0 || *station == 3 {
		station3(model)
	}
}

// drawModel paints every element's center, giving the audience the model
// overview of Figure 2 (XY projection; Y is the cortical depth axis, so the
// layer density contrast is visible).
func drawModel(model *core.Model, ch byte) *viz.Canvas {
	c, err := viz.NewCanvas(canvasW, canvasH, model.Circuit.Bounds)
	if err != nil {
		log.Fatal(err)
	}
	for i := range model.Circuit.Elements {
		c.Plot(model.Circuit.Elements[i].Shape.Center(), ch)
	}
	return c
}

func station1(model *core.Model, kindName string, k int, radius float64) {
	fmt.Println("--- station 1: efficient spatial data querying (FLAT, §2) ---")
	q := geom.BoxAround(model.Circuit.Params.Volume.Center(), 45)

	c := drawModel(model, '.')
	c.Box(q, '#')
	fmt.Println(c.String())
	fmt.Println("model projection (dots: neuron segments; #: the selected range query)")

	cmp := model.CompareRangeQuery(q)
	tb := stats.NewTable("live statistics (Figure 3)", "method", "pages read", "per level (leaf..root)", "time")
	tb.AddRow("FLAT", cmp.FlatStats.TotalReads(), "-", stats.Dur(cmp.FlatTime))
	tb.AddRow("R-Tree", cmp.RTreeStats.TotalReads(),
		fmt.Sprintf("%v", cmp.RTreeStats.NodesPerLevel()), stats.Dur(cmp.RTreeTime))
	tb.Render(os.Stdout)
	fmt.Printf("both retrieved %d elements\n", cmp.Results)

	// The session's planner routes a batch of such queries to the cheapest
	// contender after calibrating each one on a small sample.
	batch := []engine.Request{
		engine.RangeRequest(q),
		engine.RangeRequest(q.Expand(-10)),
		engine.RangeRequest(q.Expand(10)),
	}
	if _, err := model.DoBatch(context.Background(), batch, 1); err != nil {
		log.Fatal(err)
	}
	decision := model.Session().Planner().PlanKind(engine.Range, nil)
	fmt.Printf("engine planner: %s\n\n", decision)

	// Figure 4: the crawl order, each page labeled by retrieval order.
	crawl := model.Flat.QueryTraced(q, nil, func(int32) {})
	c2, err := viz.NewCanvas(canvasW, canvasH, q.Expand(15))
	if err != nil {
		log.Fatal(err)
	}
	c2.Box(q, '#')
	for i, page := range crawl.CrawlOrder {
		c2.FillBox(model.Flat.PageBox(page).Intersect(q), viz.CrawlGlyph(i))
	}
	fmt.Println(c2.String())
	fmt.Printf("FLAT's crawl order (Figure 4): %d pages, labeled 0-9a-z in retrieval order;\n"+
		"the crawl spreads outward from the seed page through neighborhood links\n\n",
		len(crawl.CrawlOrder))

	// The Session front door: the same model serves any query kind through
	// one typed Request surface, planner-routed per kind.
	kind, err := engine.ParseKind(kindName)
	if err != nil {
		log.Fatal(err)
	}
	center := model.Circuit.Params.Volume.Center()
	var req engine.Request
	switch kind {
	case engine.Range:
		req = engine.RangeRequest(geom.BoxAround(center, radius))
	case engine.KNN:
		req = engine.KNNRequest(center, k)
	case engine.Point:
		req = engine.PointRequest(center)
	case engine.WithinDistance:
		req = engine.WithinDistanceRequest(center, radius)
	}
	res, err := model.Do(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	tb2 := stats.NewTable("session front door: one typed request, any kind, planner-routed",
		"request", "routed to", "results", "pages", "index reads", "entries tested")
	tb2.AddRow(res.Request.String(), res.Index, res.Stats.Results, res.Stats.PagesRead,
		res.Stats.IndexReads, res.Stats.EntriesTested)
	tb2.Render(os.Stdout)
	if kind == engine.KNN && len(res.Hits) > 0 {
		fmt.Printf("nearest element %d at distance %.2f µm of the volume center\n",
			res.Hits[0].ID, math.Sqrt(res.Hits[0].Dist2))
	}
	fmt.Println()
}

// station1Churn demonstrates the mutable Dataset lifecycle: batched
// mutations commit new snapshot epochs while a pre-churn session stays
// pinned — the audience sees the pinned and current answers diverge as the
// "tissue keeps growing".
func station1Churn(model *core.Model, batches int) {
	fmt.Println("--- station 1b: the model keeps growing (mutable Dataset) ---")
	ctx := context.Background()
	center := model.Circuit.Params.Volume.Center()
	req := engine.WithinDistanceRequest(center, 30)

	pinned, err := model.OpenSession()
	if err != nil {
		log.Fatal(err)
	}
	defer pinned.Close()
	before, err := pinned.Do(ctx, req)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	vol := model.Circuit.Params.Volume
	size := vol.Size()
	for b := 0; b < batches; b++ {
		if _, err := model.Mutate(func(tx *engine.Tx) error {
			for i := 0; i < 16; i++ {
				p := geom.V(
					vol.Min.X+rng.Float64()*size.X,
					vol.Min.Y+rng.Float64()*size.Y,
					vol.Min.Z+rng.Float64()*size.Z,
				)
				tx.Insert(geom.BoxAround(p, 1+rng.Float64()*3))
			}
			tx.Delete(int32(b)) // retire one original element per batch
			return nil
		}); err != nil {
			log.Fatal(err)
		}
	}
	after, err := model.Do(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	again, err := pinned.Do(ctx, req)
	if err != nil {
		log.Fatal(err)
	}

	st := model.Dataset.Stats()
	tb := stats.NewTable(fmt.Sprintf("dataset after %d commits (epoch %d)", st.Commits, st.Epoch),
		"live", "delta", "tombstones", "layout shared/patched/appended")
	tb.AddRow(st.Live, st.DeltaEntries, st.Tombstones,
		fmt.Sprintf("%d/%d/%d", st.Cow.Shared, st.Cow.Patched, st.Cow.Appended))
	tb.Render(os.Stdout)

	tb2 := stats.NewTable("snapshot isolation, live: the same query, two epochs",
		"session", "epoch", "results", "delta tested", "tombs filtered")
	tb2.AddRow("pinned pre-churn", pinned.Snapshot().Epoch(), len(again.Hits),
		again.Stats.DeltaEntries, again.Stats.Tombstones)
	tb2.AddRow("current", model.Session().Snapshot().Epoch(), len(after.Hits),
		after.Stats.DeltaEntries, after.Stats.Tombstones)
	tb2.Render(os.Stdout)
	if len(again.Hits) != len(before.Hits) {
		log.Fatalf("pinned session drifted: %d hits, had %d", len(again.Hits), len(before.Hits))
	}
	fmt.Printf("the pinned session replayed its epoch exactly (%d hits) while %d commits landed\n\n",
		len(before.Hits), st.Commits)
}

func station2(model *core.Model) {
	fmt.Println("--- station 2: efficient data exploration (SCOUT, §3) ---")
	neuron, branch, path := model.Circuit.LongestPath()

	c := drawModel(model, '.')
	for _, pt := range path {
		c.Plot(pt, '@')
	}
	fmt.Println(c.String())
	fmt.Printf("walk-through trajectory (@): neuron %d, branch %d, %.0f µm\n\n",
		neuron, branch, pathLen(path))

	cfg := core.ExploreConfig{ThinkTime: 500 * time.Millisecond}
	tb := stats.NewTable("prefetching statistics (Figure 6)",
		"method", "stall", "speedup", "prefetched", "correct", "accuracy")
	var base time.Duration
	for _, pf := range model.Prefetchers() {
		run, err := model.Explore(neuron, branch, pf, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if pf.Name() == "none" {
			base = run.Latency
		}
		tb.AddRow(pf.Name(), stats.Dur(run.Latency), stats.Speedup(base, run.Latency),
			run.PrefetchReads, run.PrefetchHits, stats.Ratio(run.PrefetchHits, run.PrefetchReads))
	}
	tb.Render(os.Stdout)
	fmt.Println()
}

func station3(model *core.Model) {
	fmt.Println("--- station 3: efficient data discovery (TOUCH, §4) ---")
	region := model.Circuit.Bounds
	alg, err := model.JoinByName("TOUCH")
	if err != nil {
		log.Fatal(err)
	}
	synapses, st := model.FindSynapses(region, 2.0, alg)

	c := drawModel(model, '.')
	for _, s := range synapses {
		c.Plot(s.Location, 'O')
	}
	fmt.Println(c.String())
	fmt.Printf("synapse locations highlighted (O, Figure 7): %d candidates\n", len(synapses))
	fmt.Printf("TOUCH: %v, %s pairwise tests, %s auxiliary memory\n\n",
		stats.Dur(st.TotalTime()), stats.Count(st.BoxTests+st.Comparisons), stats.Bytes(st.ExtraBytes))

	_ = pager.DefaultCostModel() // the demo's cost model is documented in pager
}

func pathLen(path []geom.Vec) float64 {
	var l float64
	for i := 0; i+1 < len(path); i++ {
		l += path[i].Dist(path[i+1])
	}
	return l
}
