package engine_test

// Fuzz target for the Request validation contract: arbitrary field
// combinations never panic anywhere in the execution stack, invalid
// requests always come back as a typed *RequestError, and valid requests
// always execute. The seed corpus under testdata/fuzz covers every kind,
// the NaN/Inf poison values and the overflow-prone K values.

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

// fuzzTargets lazily builds one small deterministic item set behind every
// contender shape (the build cost is paid once per fuzz process, not per
// input).
func fuzzTargets(t testing.TB) []engine.SpatialIndex {
	fuzzOnce.Do(func() {
		var items []rtree.Item
		for i := 0; i < 48; i++ {
			c := geom.V(float64(3+(i*17)%90), float64(5+(i*29)%90), float64(7+(i*41)%90))
			items = append(items, rtree.Item{Box: geom.BoxAround(c, 1+float64(i%5)), ID: int32(i)})
		}
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
