package engine

import (
	"fmt"
	"math"

	"neurospatial/internal/geom"
)

// Kind selects the query semantics of a Request — the tagged front door that
// replaced the range-only SpatialIndex.Query surface. Every engine index
// executes every kind (SpatialIndex.Do), so harnesses pick semantics per
// request instead of per API.
type Kind uint8

const (
	// KindInvalid is the zero Kind: a Request must name its semantics
	// explicitly, so the zero value never validates.
	KindInvalid Kind = iota
	// Range reports the items whose boxes intersect Request.Box.
	Range
	// KNN reports the Request.K items whose boxes are nearest to
	// Request.Center (by squared box distance, ties broken by ascending ID).
	KNN
	// Point reports the items whose boxes contain Request.Center (point
	// stabbing — the degenerate range query of an inspection click).
	Point
	// WithinDistance reports the items whose boxes lie within Request.Radius
	// of Request.Center (exact geom.AABB.Dist2Point test — a sphere query,
	// not its bounding box).
	WithinDistance
)

// String implements fmt.Stringer with the names the driver flags accept.
func (k Kind) String() string {
	switch k {
	case Range:
		return "range"
	case KNN:
		return "knn"
	case Point:
		return "point"
	case WithinDistance:
		return "within"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds lists the valid request kinds in display order.
func Kinds() []Kind { return []Kind{Range, KNN, Point, WithinDistance} }

// ParseKind resolves a driver-flag kind name ("range", "knn", "point",
// "within").
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return KindInvalid, fmt.Errorf("engine: unknown query kind %q (have range, knn, point, within)", name)
}

// Request is one typed query: a Kind tag plus the fields that kind reads.
// Unused fields are ignored. The zero Request is invalid; construct requests
// with the Range/KNN/Point/WithinDistanceRequest helpers or set Kind
// explicitly and Validate before executing by hand (Session.Do and
// SpatialIndex.Do validate internally and never panic on a malformed
// request — they return a *RequestError).
type Request struct {
	// Kind selects the query semantics.
	Kind Kind
	// cold makes the traversals read the index's own store even when a
	// PageSource is attached (see pickSource). Only the planner's calibration
	// probe sets it; views and the sharded index hand it down to their bases.
	// It sits in Kind's alignment padding: a Request stays 128 bytes, the
	// largest value a closure still captures by copy instead of moving it to
	// the heap.
	cold bool
	// Box is the query range (Range only).
	Box geom.AABB
	// Center is the query point (KNN, Point, WithinDistance).
	Center geom.Vec
	// K is the neighbor count (KNN only).
	K int
	// Radius is the sphere radius (WithinDistance only).
	Radius float64

	// Limit caps the number of hits returned (0 = unlimited). A page is a
	// slice of the full result: the request runs whole, reading every page
	// its unpaginated form reads, and the page is cut from its hits.
	Limit int
	// Offset skips that many leading hits (after the Cursor position, when
	// both are set). Like Cursor, it changes which hits a page returns, not
	// what the request reads.
	Offset int
	// Cursor resumes a paginated result strictly after the position encoded
	// in a previous Result's Cursor token. It must have been minted for the
	// same Kind (Validate rejects a mismatch) and is only meaningful against
	// the same index and item set.
	Cursor Cursor
}

// paginated reports whether the request asks for a partial result window.
func (r Request) paginated() bool {
	return r.Limit > 0 || r.Offset > 0 || r.Cursor != ""
}

// RangeRequest returns a box-intersection request.
func RangeRequest(box geom.AABB) Request { return Request{Kind: Range, Box: box} }

// KNNRequest returns a k-nearest-neighbors request around center.
func KNNRequest(center geom.Vec, k int) Request {
	return Request{Kind: KNN, Center: center, K: k}
}

// PointRequest returns a point-stabbing request at p.
func PointRequest(p geom.Vec) Request { return Request{Kind: Point, Center: p} }

// WithinDistanceRequest returns a sphere request: items within radius of
// center.
func WithinDistanceRequest(center geom.Vec, radius float64) Request {
	return Request{Kind: WithinDistance, Center: center, Radius: radius}
}

// RequestError is the typed validation error of the Request surface: which
// kind was asked for, which field was malformed, and why. Every invalid
// request — any field combination — yields one of these; execution paths
// never panic on bad input.
type RequestError struct {
	// Kind is the request's kind tag (possibly invalid itself).
	Kind Kind
	// Field names the offending field ("Kind", "Box", "Center", "K",
	// "Radius").
	Field string
	// Reason says what is wrong with it.
	Reason string
}

// Error implements error.
func (e *RequestError) Error() string {
	return fmt.Sprintf("engine: invalid %s request: %s %s", e.Kind, e.Field, e.Reason)
}

func vecHasNaN(v geom.Vec) bool {
	return math.IsNaN(v.X) || math.IsNaN(v.Y) || math.IsNaN(v.Z)
}

// Validate reports whether the request is executable, returning a
// *RequestError describing the first problem found. NaN coordinates are
// rejected everywhere (they poison every comparison); infinities are legal
// (an all-space range is a valid, if expensive, request).
func (r Request) Validate() error {
	if r.Limit < 0 {
		return &RequestError{Kind: r.Kind, Field: "Limit", Reason: fmt.Sprintf("is %d, want >= 0", r.Limit)}
	}
	if r.Offset < 0 {
		return &RequestError{Kind: r.Kind, Field: "Offset", Reason: fmt.Sprintf("is %d, want >= 0", r.Offset)}
	}
	if r.Cursor != "" {
		kind, _, err := r.Cursor.decode()
		if err != nil {
			return &RequestError{Kind: r.Kind, Field: "Cursor", Reason: "is malformed"}
		}
		if kind != r.Kind {
			return &RequestError{Kind: r.Kind, Field: "Cursor",
				Reason: fmt.Sprintf("was minted for a %s request", kind)}
		}
	}
	switch r.Kind {
	case Range:
		if vecHasNaN(r.Box.Min) || vecHasNaN(r.Box.Max) {
			return &RequestError{Kind: r.Kind, Field: "Box", Reason: "has NaN coordinates"}
		}
		if r.Box.IsEmpty() {
			return &RequestError{Kind: r.Kind, Field: "Box", Reason: "is empty (Min > Max on some axis)"}
		}
		return nil
	case KNN:
		if vecHasNaN(r.Center) {
			return &RequestError{Kind: r.Kind, Field: "Center", Reason: "has NaN coordinates"}
		}
		if r.K < 1 {
			return &RequestError{Kind: r.Kind, Field: "K", Reason: fmt.Sprintf("is %d, want >= 1", r.K)}
		}
		return nil
	case Point:
		if vecHasNaN(r.Center) {
			return &RequestError{Kind: r.Kind, Field: "Center", Reason: "has NaN coordinates"}
		}
		return nil
	case WithinDistance:
		if vecHasNaN(r.Center) {
			return &RequestError{Kind: r.Kind, Field: "Center", Reason: "has NaN coordinates"}
		}
		if math.IsNaN(r.Radius) || r.Radius < 0 {
			return &RequestError{Kind: r.Kind, Field: "Radius", Reason: fmt.Sprintf("is %v, want >= 0", r.Radius)}
		}
		return nil
	}
	return &RequestError{Kind: r.Kind, Field: "Kind", Reason: "is not a known query kind"}
}

// String renders the request for logs and tables.
func (r Request) String() string {
	switch r.Kind {
	case Range:
		return fmt.Sprintf("range %v", r.Box)
	case KNN:
		return fmt.Sprintf("knn k=%d @ %v", r.K, r.Center)
	case Point:
		return fmt.Sprintf("point @ %v", r.Center)
	case WithinDistance:
		return fmt.Sprintf("within r=%g @ %v", r.Radius, r.Center)
	}
	return fmt.Sprintf("invalid request (kind %d)", uint8(r.Kind))
}

// Hit is one reported item. Every index emits hits in the same canonical
// per-kind order, so results are identical — hit for hit, position for
// position — across contenders, shard counts and worker counts:
//
//   - Range, Point, WithinDistance: ascending ID;
//   - KNN: ascending (Dist2, ID) — nearest first, ties by ID.
type Hit struct {
	// ID is the reported item.
	ID int32
	// Dist2 is the squared box distance to Request.Center for KNN and
	// WithinDistance hits; 0 for the boolean kinds.
	Dist2 float64
}

// Result is one executed request: what was asked, who served it, what came
// back, and what it cost.
type Result struct {
	// Request is the executed request.
	Request Request
	// Index names the contender that served it (the view WithIndexName
	// fixed, or the planner's per-kind routing decision).
	Index string
	// Hits holds the reported items in canonical order (see Hit). For a
	// paginated request this is one page: at most Limit hits starting after
	// the request's Cursor/Offset position.
	Hits []Hit
	// Stats is the unified execution record. A paginated request's is its
	// whole execution's, with Results counting the page's hits.
	Stats QueryStats
	// Cursor is the resume token of the next page. It is set only when the
	// request carried a Limit and the page filled it; an exactly-full final
	// page therefore yields one trailing empty page. Empty means the result
	// is exhausted.
	Cursor Cursor
}
