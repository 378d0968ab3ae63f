package engine_test

// Satellite regression coverage of the Request surface: typed validation,
// kNN's page accounting against an independent read tap (NodesPerLevel +
// PagesRead under the R-tree's one-node-per-page convention), and the
// Aggregate NodesPerLevel sizing fix with its micro-benchmark.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

func TestRequestValidate(t *testing.T) {
	nan := math.NaN()
	valid := []engine.Request{
		engine.RangeRequest(geom.BoxAround(geom.V(1, 2, 3), 5)),
		engine.RangeRequest(geom.Box(geom.V(0, 0, 0), geom.V(0, 0, 0))), // degenerate but non-empty
		engine.KNNRequest(geom.V(0, 0, 0), 1),
		engine.PointRequest(geom.V(-1e9, 0, 1e9)),
		engine.WithinDistanceRequest(geom.V(0, 0, 0), 0),
		{Kind: engine.Range, Box: geom.AABB{Min: geom.V(math.Inf(-1), 0, 0), Max: geom.V(math.Inf(1), 1, 1)}},
	}
	for i, r := range valid {
		if err := r.Validate(); err != nil {
			t.Errorf("valid request %d (%s): %v", i, r, err)
		}
	}
	invalid := []struct {
		req   engine.Request
		field string
	}{
		{engine.Request{}, "Kind"},
		{engine.Request{Kind: engine.Kind(200)}, "Kind"},
		{engine.RangeRequest(geom.EmptyAABB()), "Box"},
		{engine.RangeRequest(geom.AABB{Min: geom.V(nan, 0, 0), Max: geom.V(1, 1, 1)}), "Box"},
		{engine.KNNRequest(geom.V(0, 0, 0), 0), "K"},
		{engine.KNNRequest(geom.V(0, nan, 0), 3), "Center"},
		{engine.PointRequest(geom.V(nan, nan, nan)), "Center"},
		{engine.WithinDistanceRequest(geom.V(0, 0, 0), -0.5), "Radius"},
		{engine.WithinDistanceRequest(geom.V(0, 0, 0), nan), "Radius"},
	}
	for i, c := range invalid {
		err := c.req.Validate()
		reqErr, ok := err.(*engine.RequestError)
		if !ok {
			t.Fatalf("invalid request %d (%s): got %v, want *RequestError", i, c.req, err)
		}
		if reqErr.Field != c.field {
			t.Errorf("invalid request %d (%s): blamed field %q, want %q", i, c.req, reqErr.Field, c.field)
		}
		if reqErr.Error() == "" {
			t.Errorf("invalid request %d: empty error text", i)
		}
	}
}

// TestKNNReadsThroughSource: every page a kNN counts is a read through the
// attached source — tap reads == QueryStats.PagesRead on every contender (the
// sharded one at 1 and 4 shards over each sub-index), raw and through a
// snapshot view over a live overlay. For the R-tree, whose nodes are its
// pages, that is every node access: IndexReads stays 0 and NodesPerLevel sums
// to PagesRead.
func TestKNNReadsThroughSource(t *testing.T) {
	items := testItems(t, 10, 9101)
	for _, cell := range sessionCells(t, items) {
		ix := cell.ix.(engine.Paged)
		tap := pager.NewCounting(ix.Store())
		ix.SetSource(tap)
		view, _ := churnedView(t, ix, items)
		for _, sf := range []struct {
			name string
			ix   engine.SpatialIndex
		}{{"raw", ix}, {"view", view}} {
			for i, k := range []int{1, 5, 16} {
				p := items[(i*41)%len(items)].Box.Center()
				tap.Reset()
				st, err := sf.ix.Do(context.Background(), engine.KNNRequest(p, k), nil)
				if err != nil {
					t.Fatal(err)
				}
				if st.PagesRead == 0 || tap.Reads() != st.PagesRead {
					t.Errorf("%s/%s k=%d: the source saw %d reads, PagesRead says %d",
						cell.name, sf.name, k, tap.Reads(), st.PagesRead)
				}
				if int(st.Results) != k {
					t.Errorf("%s/%s k=%d: Results=%d", cell.name, sf.name, k, st.Results)
				}
				if cell.name != "rtree" {
					continue
				}
				var nodes int64
				for _, n := range st.NodesPerLevel() {
					nodes += n
				}
				if st.IndexReads != 0 || nodes != st.PagesRead {
					t.Errorf("rtree/%s k=%d: IndexReads %d, NodesPerLevel %v, PagesRead %d (every R-tree node is a page)",
						sf.name, k, st.IndexReads, st.NodesPerLevel(), st.PagesRead)
				}
			}
		}
	}
}

// TestKNNWorkTracksAnswer: what a kNN touches — directory steps plus page
// reads — follows the answer's neighbourhood, not the item count: ten times
// the items, under three times the work, on every contender. k = 8 from eight
// centres away from streamItems' cluster, where every clustered item ties at
// distance zero and the tie class itself grows with the item count.
func TestKNNWorkTracksAnswer(t *testing.T) {
	work := map[string][2]int64{}
	for i, n := range []int{3000, 30000} {
		for _, ix := range streamContenders(t, streamItems(n, 5)) {
			w := work[ix.Name()]
			for j := 0; j < 8; j++ {
				c := geom.V(25+50*float64(j&1), 25+50*float64(j>>1&1), 25+50*float64(j>>2))
				st, err := ix.Do(context.Background(), engine.KNNRequest(c, 8), nil)
				if err != nil {
					t.Fatal(err)
				}
				w[i] += st.IndexReads + st.PagesRead
			}
			work[ix.Name()] = w
		}
	}
	for name, w := range work {
		t.Logf("%s: %d reads over 3,000 items, %d over 30,000", name, w[0], w[1])
		if w[0] == 0 || w[1] >= 3*w[0] {
			t.Errorf("%s: IndexReads+PagesRead went %d → %d for 10× the items", name, w[0], w[1])
		}
	}
}

// TestAggregateNodesPerLevel: the allocation-free Aggregate must sum ragged
// per-level records element-wise, exactly as the old slice-grow loop did.
func TestAggregateNodesPerLevel(t *testing.T) {
	in := []engine.QueryStats{
		{PagesRead: 1, LevelNodes: [engine.MaxLevels]int64{3, 2, 1}, Levels: 3},
		{PagesRead: 2},
		{PagesRead: 4, LevelNodes: [engine.MaxLevels]int64{10}, Levels: 1},
		{PagesRead: 8, LevelNodes: [engine.MaxLevels]int64{1, 1, 1, 1, 1}, Levels: 5},
	}
	got := engine.Aggregate(in)
	if got.PagesRead != 15 {
		t.Fatalf("PagesRead %d", got.PagesRead)
	}
	if want := []int64{14, 3, 2, 1, 1}; !reflect.DeepEqual(got.NodesPerLevel(), want) {
		t.Fatalf("NodesPerLevel %v, want %v", got.NodesPerLevel(), want)
	}
	if agg := engine.Aggregate(nil); agg.NodesPerLevel() != nil {
		t.Fatalf("empty aggregate reported NodesPerLevel %v", agg.NodesPerLevel())
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = engine.Aggregate(in) }); allocs != 0 {
		t.Fatalf("Aggregate allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkAggregateNodesPerLevel measures Aggregate over a large batch of
// deep per-level records — the case the original per-record grow loop made
// O(levels) appends per record (and the later sized form one allocation).
func BenchmarkAggregateNodesPerLevel(b *testing.B) {
	const records, levels = 4096, 8
	sts := make([]engine.QueryStats, records)
	for i := range sts {
		st := &sts[i]
		st.PagesRead = int64(i)
		st.Levels = levels
		for l := 0; l < levels; l++ {
			st.LevelNodes[l] = int64(i + l)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := engine.Aggregate(sts)
		if agg.Levels != levels {
			b.Fatal("bad aggregate")
		}
	}
}

// TestKindParseRoundTrip pins the flag-name surface of the kinds.
func TestKindParseRoundTrip(t *testing.T) {
	for _, k := range engine.Kinds() {
		got, err := engine.ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := engine.ParseKind("sphere"); err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
}
