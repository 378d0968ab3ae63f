package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// span is one timed call into a layer. Spans of one sampled operation share
// Trace; Parent is 0 for the root. Spans are recorded from the benchmark's
// side of each public entry point: the root is the real call, its children
// are replays of the same input through the next entry point down, so a
// child's interval follows its parent's instead of nesting inside it.
type span struct {
	Trace  int64            `json:"trace"`
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Layer  string           `json:"layer"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	traces int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newTrace() int64 { t.traces++; return t.traces }

// add records one finished span and returns its ID.
func (t *tracer) add(trace, parent int64, layer string, start, end time.Time, counts map[string]int64) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Counts: counts})
	return id
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// samples accumulates per-layer observations by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// report writes the median of every accumulated timing and the mean of every
// accumulated per-query count (which is exact for one seed).
func (s samples) report(r *report) {
	for name, xs := range s {
		if perQueryCount(name) {
			r.set(name, mean(xs), len(xs))
		} else {
			r.set(name, median(xs), len(xs))
		}
	}
}

// perQueryCount says whether a per-layer metric is a work count averaged over
// the sampled queries (exact for one seed) rather than a timing.
func perQueryCount(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit == "count" || d.Unit == "B"
		}
	}
	return false
}

// builtBases are benchmark-built contenders handed to a dataset through
// DatasetOptions.Bases, with the read taps and SoA sidecars the traced run
// decomposes a request with.
type builtBases struct {
	list   []engine.SpatialIndex
	byName map[string]engine.Paged
	taps   map[string]*pager.Counting
	coords map[string]*pager.Coords
}

// buildBases builds the four contenders over items (dense IDs), timing each
// build into r.
func buildBases(items []rtree.Item, r *report) (*builtBases, error) {
	b := &builtBases{byName: map[string]engine.Paged{}, taps: map[string]*pager.Counting{},
		coords: map[string]*pager.Coords{}}
	for _, name := range contenders {
		// The same constructions DatasetOptions' defaults select, so these
		// bases match what a compaction of the dataset would build.
		var ix engine.Paged
		switch name {
		case "flat":
			ix = engine.NewFlat(flat.DefaultOptions())
		case "rtree":
			ix = engine.NewRTree(0)
		case "grid":
			ix = engine.NewGrid(engine.GridOptions{})
		case "sharded":
			ix = engine.NewSharded(engine.ShardedOptions{Flat: flat.DefaultOptions()})
		}
		t0 := time.Now()
		if err := ix.Build(items); err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		r.set(name+".build_ms", ms(time.Since(t0)), 1)
		b.list = append(b.list, ix)
		b.byName[name] = ix
	}
	return b, nil
}

// installTaps routes every base's page reads through a pager.Counting and,
// the first time, builds the SoA sidecar FilterPage replays need. It is
// read-path configuration, like detachTaps: call it while no query runs.
func (b *builtBases) installTaps(items []rtree.Item) {
	boxOf := func(id int32) geom.AABB { return items[id].Box }
	for name, ix := range b.byName {
		if b.taps[name] == nil {
			b.taps[name] = pager.NewCounting(ix.Store())
			b.coords[name] = pager.BuildCoords(ix.Store(), boxOf)
		}
		ix.SetSource(b.taps[name])
	}
}

// detachTaps restores every base's reads to its own store.
func (b *builtBases) detachTaps() {
	for _, ix := range b.byName {
		ix.SetSource(nil)
	}
}

func (b *builtBases) resetTaps() {
	for _, t := range b.taps {
		t.Reset()
	}
}

func (b *builtBases) tapReads() int64 {
	var n int64
	for _, t := range b.taps {
		n += t.Reads()
	}
	return n
}

const tinyReps = 64 // repetitions of a call too short for one clock reading

// sampled is one decomposed request: the root call and, round by round, the
// same request through each entry point below it.
type sampled struct {
	req            engine.Request
	trace          int64
	rootID, viewID int64
	baseID         int64
	routed         string
	want           uint64 // digest of the root call's hits
	// Durations in ns.
	root, validate, consult, view float64
	base                          map[string]float64
	nullDo, nullView              float64
}

// decomposer splits sampled requests into layers. A replay straight after the
// real call would find every cache line the call just loaded, and measure a
// layer far cheaper than it was inside the call. So a window of requests is
// run once per entry point instead: the first round issues every request
// through Session.Do, and each later round repeats the whole window with only
// the sampled positions switched to one lower entry point — the snapshot
// view's Do, each base contender's Do, ReadPage plus FilterPage, a null
// request. Every measurement of one request then sits among the same
// neighbours, a whole window apart from the previous one.
type decomposer struct {
	tr     *tracer
	acc    samples
	bases  *builtBases // nil once the dataset serves bases the benchmark did not build
	stride int         // every stride-th request is decomposed
	null   engine.Request
	r      *report
}

func newDecomposer(tr *tracer, r *report, bases *builtBases, vol geom.AABB, stride int) *decomposer {
	// The null request touches no page and returns nothing: what Session.Do
	// costs on it, less its own lower layers, is the front door's fixed cost.
	far := vol.Max.Add(vol.Size().Scale(10))
	return &decomposer{tr: tr, acc: samples{}, bases: bases, stride: stride, r: r, null: engine.PointRequest(far)}
}

// timeDo runs one request through ix, collecting its hits.
func timeDo(ix engine.SpatialIndex, req engine.Request) ([]engine.Hit, engine.QueryStats, time.Time, time.Time, error) {
	var hits []engine.Hit
	t0 := time.Now()
	st, err := ix.Do(context.Background(), req, func(h engine.Hit) { hits = append(hits, h) })
	return hits, st, t0, time.Now(), err
}

func ns(t0, t1 time.Time) float64 { return float64(t1.Sub(t0).Nanoseconds()) }

// window runs reqs through sess once per entry point. first is the stream
// position of reqs[0]; positions divisible by the stride are decomposed. each
// receives every successful first-round call — the ones the workload's own
// latency figures are made of.
func (d *decomposer) window(sess *engine.Session, reqs []engine.Request, first int,
	each func(i int, res engine.Result, took time.Duration)) {

	ctx := context.Background()
	picked := make(map[int]*sampled)
	for i, req := range reqs {
		if (first+i)%d.stride == 0 {
			if s := d.root(sess, req, func(res engine.Result, took time.Duration) { each(i, res, took) }); s != nil {
				picked[i] = s
			}
			continue
		}
		t0 := time.Now()
		res, err := sess.Do(ctx, req)
		took := time.Since(t0)
		if d.r.check(err, "Session.Do") {
			each(i, res, took)
		}
	}
	rounds := []func(*sampled){func(s *sampled) { d.view(sess, s) }}
	if d.bases != nil {
		for _, name := range contenders {
			name := name
			rounds = append(rounds, func(s *sampled) { d.baseDo(name, s) })
		}
		rounds = append(rounds, d.pages)
	}
	rounds = append(rounds, func(s *sampled) { d.nullDo(sess, s) })
	for _, round := range rounds {
		for i, req := range reqs {
			if s := picked[i]; s != nil {
				round(s)
			} else if _, err := sess.Do(ctx, req); err != nil {
				d.r.check(err, "Session.Do")
			}
		}
	}
	for i := range reqs {
		if s := picked[i]; s != nil {
			d.finish(s)
		}
	}
}

// root is the first round at a sampled position: the real Session.Do, with
// the taps read around it, then Validate and the plan-cache consultation.
func (d *decomposer) root(sess *engine.Session, req engine.Request, ok func(engine.Result, time.Duration)) *sampled {
	if d.bases != nil {
		d.bases.resetTaps()
	}
	t0 := time.Now()
	res, err := sess.Do(context.Background(), req)
	t1 := time.Now()
	if !d.r.check(err, "Session.Do") {
		return nil
	}
	var reads int64
	if d.bases != nil {
		reads = d.bases.tapReads() // before ok, which may run checks through the taps
	}
	ok(res, t1.Sub(t0))
	s := &sampled{req: req, trace: d.tr.newTrace(), routed: res.Index, want: digest(res.Hits),
		root: ns(t0, t1), base: map[string]float64{}}
	counts := map[string]int64{"pages": res.Stats.PagesRead, "results": res.Stats.Results,
		"delta": res.Stats.DeltaEntries, "tombstones": res.Stats.Tombstones}
	if d.bases != nil {
		counts["tap_reads"] = reads
		d.acc.add("pager.reads_per_query", float64(reads))
		// The independent tap and the engine's own record must agree. (A
		// planner probe inside this Do reads around the tap and is in
		// neither.) The one exception is the R-tree's kNN, which walks its
		// nodes in memory and counts them as PagesRead without going through
		// the PageSource: its taps read 0.
		if !(res.Index == "rtree" && req.Kind == engine.KNN) {
			d.r.op()
			if reads != res.Stats.PagesRead {
				d.r.fail("tap counted %d reads, QueryStats.PagesRead says %d (%s)", reads, res.Stats.PagesRead, req)
			}
		}
	}
	s.rootID = d.tr.add(s.trace, 0, "session.do", t0, t1, counts)
	d.acc.add("session.do_ns", s.root)
	d.acc.add("snapshot.delta_entries_per_query", float64(res.Stats.DeltaEntries))
	d.acc.add("snapshot.tombstones_per_query", float64(res.Stats.Tombstones))

	// Validate and the plan-cache consultation touch no data and are too
	// short for one clock reading: time tinyReps of each, here.
	v0 := time.Now()
	for i := 0; i < tinyReps; i++ {
		if err := req.Validate(); err != nil {
			d.r.fail("Validate(%s): %v", req, err)
		}
	}
	v1 := time.Now()
	s.validate = ns(v0, v1) / tinyReps
	d.tr.add(s.trace, s.rootID, "request.validate", v0, v1, map[string]int64{"reps": tinyReps})
	d.acc.add("request.validate_ns", s.validate)
	if p := sess.Planner(); p != nil {
		sample := []engine.Request{req}
		c0 := time.Now()
		for i := 0; i < tinyReps; i++ {
			p.PlanKindCached(req.Kind, sample)
		}
		c1 := time.Now()
		s.consult = ns(c0, c1) / tinyReps
		d.tr.add(s.trace, s.rootID, "planner.consult_hit", c0, c1, map[string]int64{"reps": tinyReps})
		d.acc.add("planner.consult_hit_ns", s.consult)
	}
	return s
}

// view is the round through the snapshot view that served the root call.
func (d *decomposer) view(sess *engine.Session, s *sampled) {
	hits, _, t0, t1, err := timeDo(sess.Snapshot().Index(s.routed), s.req)
	if !d.r.check(err, "snapshot view Do") {
		return
	}
	if digest(hits) != s.want {
		d.r.fail("snapshot view %s disagrees with Session.Do on %s", s.routed, s.req)
	}
	s.view = ns(t0, t1)
	s.viewID = d.tr.add(s.trace, s.rootID, "snapshot.view_do", t0, t1, nil)
}

// baseDo is the round through one benchmark-built base contender.
func (d *decomposer) baseDo(name string, s *sampled) {
	_, st, t0, t1, err := timeDo(d.bases.byName[name], s.req)
	if !d.r.check(err, name+" base Do") {
		return
	}
	kind := s.req.Kind.String()
	s.base[name] = ns(t0, t1)
	d.acc.add(name+".do_ns."+kind, s.base[name])
	d.acc.add(name+".pages_per_query", float64(st.PagesRead))
	if st.Results > 0 {
		d.acc.add(name+".entries_per_result", ratio(float64(st.EntriesTested), float64(st.Results)))
	}
	if name == "flat" {
		d.acc.add("flat.reseeds_per_query", float64(st.Reseeds))
	}
	if name == "sharded" {
		d.acc.add("sharded.shards_touched_per_query", float64(st.ShardsTouched))
	}
	parent := int64(0) // a contender that did not serve the root call is a sibling trace
	if name == s.routed {
		parent = s.viewID
	}
	id := d.tr.add(s.trace, parent, name+".do."+kind, t0, t1, map[string]int64{"pages": st.PagesRead})
	if name == s.routed {
		s.baseID = id
	}
}

// pages is the round through the routed base's page source and SoA filter:
// every page PagesInRange names is read, then refined with FilterPage.
func (d *decomposer) pages(s *sampled) {
	var box geom.AABB
	switch s.req.Kind {
	case engine.Range:
		box = s.req.Box
	case engine.Point:
		box = geom.Box(s.req.Center, s.req.Center)
	default:
		return // kNN and within-distance have no PagesInRange form
	}
	base := d.bases.byName[s.routed]
	pages := base.PagesInRange(box)
	if len(pages) == 0 {
		return
	}
	src, coords := base.Source(), d.bases.coords[s.routed]
	read := make([][]int32, len(pages))
	t0 := time.Now()
	for i, p := range pages {
		read[i] = src.ReadPage(p)
	}
	t1 := time.Now()
	matched := 0
	for i, p := range pages {
		coords.FilterPage(p, read[i], box, func(int32) { matched++ })
	}
	t2 := time.Now()
	n := int64(len(pages))
	d.tr.add(s.trace, s.baseID, "pager.read", t0, t1, map[string]int64{"pages": n})
	d.tr.add(s.trace, s.baseID, "pager.filter", t1, t2, map[string]int64{"pages": n, "matched": int64(matched)})
	d.acc.add("pager.read_ns", ns(t0, t1)/float64(n))
	d.acc.add("pager.filter_ns_per_page", ns(t1, t2)/float64(n))
}

// nullDo is the round of the null request, through the session and through
// the view that serves it.
func (d *decomposer) nullDo(sess *engine.Session, s *sampled) {
	t0 := time.Now()
	res, err := sess.Do(context.Background(), d.null)
	t1 := time.Now()
	if !d.r.check(err, "null Session.Do") {
		return
	}
	_, _, w0, w1, err := timeDo(sess.Snapshot().Index(res.Index), d.null)
	if !d.r.check(err, "null view Do") {
		return
	}
	s.nullDo, s.nullView = ns(t0, t1), ns(w0, w1)
	d.tr.add(s.trace, s.rootID, "session.null_do", t0, t1, nil)
}

// finish derives one sample's self times once every round has seen it.
func (d *decomposer) finish(s *sampled) {
	if s.view == 0 || s.nullDo == 0 {
		return // a round failed; it is counted there
	}
	self := s.nullDo - s.validate - s.consult - s.nullView
	d.acc.add("session.self_ns", self)
	d.acc.add("session.unattributed_share", (s.root-s.validate-s.consult-s.view-self)/s.root)
	if b, ok := s.base[s.routed]; ok {
		d.acc.add("snapshot.overlay_ns", s.view-b)
	}
}

// consultMiss times a plan-cache miss — history lookup plus calibration
// probes — on a fresh planner over the snapshot's views, so the session's own
// planner is left as the workload made it.
func (d *decomposer) consultMiss(snap *engine.Snapshot, req engine.Request) {
	p := engine.NewPlanner(snap.Indexes()...)
	p.SetEpoch(int64(snap.Epoch()))
	t0 := time.Now()
	_, hit := p.PlanKindCached(req.Kind, []engine.Request{req})
	t1 := time.Now()
	if hit {
		return
	}
	d.tr.add(d.tr.newTrace(), 0, "planner.consult_miss", t0, t1, map[string]int64{"probes": p.ProbesRun()})
	d.acc.add("planner.consult_miss_ns", float64(t1.Sub(t0).Nanoseconds()))
}
