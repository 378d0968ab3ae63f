package engine

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// scatteredItems is n small boxes at seeded random centers in a cube, dense IDs.
func scatteredItems(n int, extent float64, seed int64) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, n)
	for i := range items {
		c := geom.V(rng.Float64()*extent, rng.Float64()*extent, rng.Float64()*extent)
		items[i] = rtree.Item{Box: geom.BoxAround(c, 0.5+rng.Float64()), ID: int32(i)}
	}
	return items
}

// baseFingerprint is everything observable about one built base: its pages and
// what it answers, hits and stats, for one request of every kind.
type baseFingerprint struct {
	pages [][]int32
	hits  [][]Hit
	stats []QueryStats
}

func fingerprint(t *testing.T, ix SpatialIndex) baseFingerprint {
	t.Helper()
	var fp baseFingerprint
	st := ix.(contender).Store()
	for p := 0; p < st.NumPages(); p++ {
		fp.pages = append(fp.pages, st.Page(pager.PageID(p)))
	}
	c := geom.V(50, 50, 50)
	for _, req := range []Request{
		RangeRequest(geom.BoxAround(c, 12)), KNNRequest(c, 9), PointRequest(c), WithinDistanceRequest(c, 10),
	} {
		var hits []Hit
		qs, err := ix.Do(context.Background(), req, func(h Hit) { hits = append(hits, h) })
		if err != nil {
			t.Fatal(err)
		}
		fp.hits, fp.stats = append(fp.hits, hits), append(fp.stats, qs)
	}
	return fp
}

// TestBuildBasesStartOrderInvariant: the schedule reorders when a contender's
// build starts, never what it builds or which slot it lands in.
func TestBuildBasesStartOrderInvariant(t *testing.T) {
	items := scatteredItems(3000, 100, 11)
	contenders := []string{"flat", "rtree", "grid", "sharded"}
	var want []baseFingerprint
	for _, last := range [][]time.Duration{
		nil,          // configuration order
		{4, 3, 2, 1}, // the same, by durations
		{1, 2, 3, 4}, // reversed
		{2, 9, 2, 5}, // a tie, kept in configuration order
	} {
		for _, workers := range []int{1, 4} {
			d := &Dataset{opts: DatasetOptions{Contenders: contenders, Workers: workers}.sanitize()}
			d.lastBuild = last
			bases, err := d.buildBases(items)
			if err != nil {
				t.Fatal(err)
			}
			var got []baseFingerprint
			for i, b := range bases {
				if b.Name() != contenders[i] {
					t.Fatalf("last %v workers %d: slot %d holds %q, want %q", last, workers, i, b.Name(), contenders[i])
				}
				got = append(got, fingerprint(t, b))
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("last %v workers %d: bases differ from the configuration-order build", last, workers)
			}
			for i, took := range d.lastBuild {
				if took <= 0 {
					t.Fatalf("last %v workers %d: no build time recorded for %s", last, workers, contenders[i])
				}
			}
		}
	}
}

// TestBuildBasesErrorIsTheFirstContenders: with two contenders failing, the
// error is the one earliest in configuration order, whichever started first.
func TestBuildBasesErrorIsTheFirstContenders(t *testing.T) {
	items := scatteredItems(500, 50, 12)
	opts := DatasetOptions{
		Contenders: []string{"flat", "rtree", "sharded"}, RTreeFanout: 2, ShardIndex: "rtree",
	}.sanitize()
	for _, last := range [][]time.Duration{nil, {1, 2, 3}, {3, 2, 1}} {
		d := &Dataset{opts: opts}
		d.lastBuild = last
		_, err := d.buildBases(items)
		if err == nil || !strings.HasPrefix(err.Error(), "engine: building rtree base: ") {
			t.Fatalf("last %v: error %v, want the rtree contender's", last, err)
		}
		if !reflect.DeepEqual(d.lastBuild, last) {
			t.Fatalf("last %v: a failed build recorded durations %v", last, d.lastBuild)
		}
	}
}
