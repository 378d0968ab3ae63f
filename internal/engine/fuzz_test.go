package engine_test

// Fuzz targets for the Request surface. FuzzRequestValidate: arbitrary field
// combinations never panic anywhere in the execution stack, invalid
// requests always come back as a typed *RequestError, and valid requests
// always execute; the seed corpus under testdata/fuzz covers every kind,
// the NaN/Inf poison values and the overflow-prone K values.
// FuzzPagination: arbitrary Limit, Offset and cursor positions either come
// back as a *RequestError or serve exactly the slice of the unpaginated
// result they name.

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

var (
	fuzzOnce    sync.Once
	fuzzIndexes []engine.SpatialIndex
)

// fuzzItems is the small deterministic item set behind every fuzz target.
func fuzzItems() []rtree.Item {
	var items []rtree.Item
	for i := 0; i < 48; i++ {
		c := geom.V(float64(3+(i*17)%90), float64(5+(i*29)%90), float64(7+(i*41)%90))
		items = append(items, rtree.Item{Box: geom.BoxAround(c, 1+float64(i%5)), ID: int32(i)})
	}
	return items
}

// fuzzTargets lazily builds fuzzItems behind every contender shape (the
// build cost is paid once per fuzz process, not per input).
func fuzzTargets(t testing.TB) []engine.SpatialIndex {
	fuzzOnce.Do(func() {
		items := fuzzItems()
		build := func(ix engine.SpatialIndex) engine.SpatialIndex {
			if err := ix.Build(items); err != nil {
				t.Fatal(err)
			}
			return ix
		}
		fuzzIndexes = []engine.SpatialIndex{
			build(engine.NewFlat(flat.DefaultOptions())),
			build(engine.NewRTree(0)),
			build(engine.NewGrid(engine.GridOptions{})),
		}
	})
	return fuzzIndexes
}

func FuzzRequestValidate(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	// One seed per kind, plus poison values: NaN boxes, infinite spheres,
	// inverted boxes, zero and overflow-adjacent K.
	f.Add(uint8(1), 0.0, 0.0, 0.0, 50.0, 50.0, 50.0, 1, 0.0)  // range
	f.Add(uint8(2), 10.0, 10.0, 10.0, 0.0, 0.0, 0.0, 5, 0.0)  // knn
	f.Add(uint8(3), 20.0, 30.0, 40.0, 0.0, 0.0, 0.0, 0, 0.0)  // point
	f.Add(uint8(4), 25.0, 25.0, 25.0, 0.0, 0.0, 0.0, 0, 15.0) // within
	f.Add(uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0)     // zero request
	f.Add(uint8(1), nan, 0.0, 0.0, 1.0, 1.0, 1.0, 0, 0.0)     // NaN box
	f.Add(uint8(1), 5.0, 5.0, 5.0, -5.0, -5.0, -5.0, 0, 0.0)  // inverted box
	f.Add(uint8(2), nan, nan, nan, 0.0, 0.0, 0.0, 3, 0.0)     // NaN center
	f.Add(uint8(2), 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, math.MaxInt, 0.0)
	f.Add(uint8(4), 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0, inf)  // infinite sphere
	f.Add(uint8(4), 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0, -1.0) // negative radius
	f.Add(uint8(99), 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7, 8.0) // unknown kind

	f.Fuzz(func(t *testing.T, kind uint8, ax, ay, az, bx, by, bz float64, k int, radius float64) {
		req := engine.Request{
			Kind:   engine.Kind(kind),
			Box:    geom.AABB{Min: geom.V(ax, ay, az), Max: geom.V(bx, by, bz)},
			Center: geom.V(ax, ay, az),
			K:      k,
			Radius: radius,
		}
		verr := req.Validate()
		if verr != nil {
			var reqErr *engine.RequestError
			if !errors.As(verr, &reqErr) {
				t.Fatalf("Validate returned untyped error %v for %s", verr, req)
			}
		}
		for _, ix := range fuzzTargets(t) {
			_, doErr := ix.Do(context.Background(), req, nil)
			if verr != nil {
				var reqErr *engine.RequestError
				if !errors.As(doErr, &reqErr) {
					t.Fatalf("%s executed invalid request %s (Validate: %v, Do: %v)",
						ix.Name(), req, verr, doErr)
				}
				continue
			}
			if doErr != nil {
				t.Fatalf("%s failed valid request %s: %v", ix.Name(), req, doErr)
			}
		}
	})
}

var (
	pageOnce    sync.Once
	pageIndexes []engine.SpatialIndex
)

// pageTargets lazily builds fuzzItems behind every contender, on pages of 8
// so a result spans several, and one snapshot view of a dataset over them
// whose overlay holds updates, deletes and inserts.
func pageTargets(t testing.TB) []engine.SpatialIndex {
	pageOnce.Do(func() {
		items := fuzzItems()
		for _, ix := range []engine.SpatialIndex{
			engine.NewFlat(flat.Options{PageSize: 8}),
			engine.NewRTree(8),
			engine.NewGrid(engine.GridOptions{PageSize: 8}),
			engine.NewSharded(engine.ShardedOptions{Shards: 3, Flat: flat.Options{PageSize: 8}}),
		} {
			if err := ix.Build(items); err != nil {
				t.Fatal(err)
			}
			pageIndexes = append(pageIndexes, ix)
		}
		ds, err := engine.NewDataset(items, engine.DatasetOptions{
			Contenders: []string{"rtree"}, RTreeFanout: 8, DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		tx := ds.Begin()
		for i, it := range items {
			switch i % 6 {
			case 0:
				tx.Update(it.ID, it.Box.Expand(2))
			case 1:
				tx.Delete(it.ID)
			case 2:
				tx.Insert(it.Box)
			}
		}
		snap, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		pageIndexes = append(pageIndexes, snap.Index("rtree"))
	})
	return pageIndexes
}

func FuzzPagination(f *testing.F) {
	nan := math.NaN()
	f.Add(uint8(0), 5, 0, false, uint8(1), int32(0), 0.0)           // first range page
	f.Add(uint8(0), 4, 3, true, uint8(1), int32(23), 0.0)           // range cursor on a hit, offset and limit
	f.Add(uint8(1), 3, 0, true, uint8(2), int32(14), 52.0)          // knn resume inside a distance tie
	f.Add(uint8(1), 0, 1, true, uint8(2), int32(8), 130.0)          // knn cursor on a tie's first hit
	f.Add(uint8(1), 0, 0, true, uint8(2), int32(-1), nan)           // knn cursor at NaN
	f.Add(uint8(3), 2, 0, true, uint8(4), int32(29), 0.0)           // within cursor on a hit
	f.Add(uint8(3), 0, 2, true, uint8(4), int32(1<<30), 0.0)        // within, past every ID
	f.Add(uint8(2), 1, 0, true, uint8(1), int32(0), 0.0)            // cursor of another kind
	f.Add(uint8(0), -1, 0, false, uint8(0), int32(0), 0.0)          // negative limit
	f.Add(uint8(0), 0, -3, false, uint8(0), int32(0), 0.0)          // negative offset
	f.Add(uint8(0), 0, math.MaxInt, false, uint8(0), int32(0), 0.0) // offset past the result
	f.Add(uint8(0), math.MaxInt, 0, false, uint8(0), int32(0), 0.0) // limit past the result
	f.Add(uint8(0), 3, 0, true, uint8(9), int32(0), 0.0)            // cursor of no kind

	center := geom.V(50, 50, 50)
	reqs := []engine.Request{
		engine.RangeRequest(geom.Box(geom.V(20, 20, 20), geom.V(80, 80, 80))),
		engine.KNNRequest(center, 9),
		engine.PointRequest(geom.V(71, 31, 81)), // item 4's center
		engine.WithinDistanceRequest(center, 30),
	}
	f.Fuzz(func(t *testing.T, reqKind uint8, limit, offset int, hasCursor bool, cursorKind uint8, cursorID int32, cursorDist float64) {
		req := reqs[int(reqKind)%len(reqs)]
		after := engine.Hit{ID: cursorID, Dist2: cursorDist}
		page := req
		page.Limit, page.Offset = limit, offset
		if hasCursor {
			page.Cursor = engine.NextCursor(engine.Kind(cursorKind), after)
		}
		invalid := limit < 0 || offset < 0 || hasCursor && engine.Kind(cursorKind) != req.Kind
		for _, ix := range pageTargets(t) {
			var got []engine.Hit
			st, err := ix.Do(context.Background(), page, func(h engine.Hit) { got = append(got, h) })
			if invalid {
				var reqErr *engine.RequestError
				if !errors.As(err, &reqErr) || len(got) != 0 {
					t.Fatalf("%s: %+v: error %v with %d hits, want a *RequestError and none", ix.Name(), page, err, len(got))
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %+v: %v", ix.Name(), page, err)
			}
			var want []engine.Hit
			if _, err := ix.Do(context.Background(), req, func(h engine.Hit) {
				if !hasCursor || follows(req.Kind, h, after) {
					want = append(want, h)
				}
			}); err != nil {
				t.Fatal(err)
			}
			want = want[min(offset, len(want)):]
			if limit > 0 && limit < len(want) {
				want = want[:limit]
			}
			if !hitsEqual(got, want) {
				t.Fatalf("%s: %+v: page %v, want %v", ix.Name(), page, got, want)
			}
			if st.Results != int64(len(got)) {
				t.Fatalf("%s: %+v: Results = %d, page holds %d hits", ix.Name(), page, st.Results, len(got))
			}
		}
	})
}

// follows reports whether h comes strictly after the cursor position in
// kind's canonical order: ascending ID, or ascending (Dist2, ID) for KNN.
func follows(kind engine.Kind, h, after engine.Hit) bool {
	if kind == engine.KNN && h.Dist2 != after.Dist2 {
		return h.Dist2 > after.Dist2
	}
	return h.ID > after.ID
}
