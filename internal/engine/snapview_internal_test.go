package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// brokenBase is a base contender whose scan always fails with a non-request
// execution error, standing in for a read path that can actually fail.
type brokenBase struct{ contender }

func (brokenBase) scan(context.Context, Request, pager.PageSource, *idCollector) (QueryStats, error) {
	return QueryStats{}, fmt.Errorf("page checksum mismatch")
}

// TestSnapViewDoReportsErrors pins the error channel of a snapshot view: an
// invalid box is a typed *RequestError, and a base execution error comes back
// as that error — neither is flattened into "no results".
func TestSnapViewDoReportsErrors(t *testing.T) {
	items := make([]rtree.Item, 64)
	for i := range items {
		c := geom.Vec{X: float64(i), Y: float64(i % 8), Z: 0}
		items[i] = rtree.Item{ID: int32(i), Box: geom.BoxAround(c, 0.5)}
	}
	ds, err := NewDataset(items, DatasetOptions{Contenders: []string{"flat"}, Flat: flat.Options{PageSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	view, ok := ds.Current().Index("flat").(*snapView)
	if !ok {
		t.Fatalf("snapshot view is not a snapView")
	}

	bad := geom.AABB{Min: geom.Vec{X: 1}, Max: geom.Vec{X: -1}}
	var reqErr *RequestError
	if _, err := view.Do(context.Background(), RangeRequest(bad), nil); !errors.As(err, &reqErr) {
		t.Fatalf("invalid box: err = %v, want *RequestError", err)
	}

	broken := &snapView{name: "flat", snap: view.snap, base: brokenBase{view.base}}
	q := geom.Box(geom.Vec{}, geom.Vec{X: 64, Y: 8, Z: 1})
	st, err := broken.Do(context.Background(), RangeRequest(q), func(Hit) {
		t.Error("hit emitted despite a failing base")
	})
	if err == nil {
		t.Fatalf("Do on a broken base returned %+v without error", st)
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("error %q does not carry the execution error", err)
	}
}
