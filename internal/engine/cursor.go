package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file holds the resume token of paginated requests: a page is a slice
// of the eager result (executePage, exec.go), and a Cursor names the
// canonical position it resumes after.

// Cursor is an opaque resume token for paginated requests. A Result whose
// page filled its Limit carries the cursor of the next page; passing it in
// Request.Cursor resumes the result strictly after the last returned hit.
// Cursors are only meaningful against the same index and item set they were
// minted on; they encode the request kind and the last hit's canonical
// position, nothing else.
type Cursor string

// cursorPrefix versions the token format.
const cursorPrefix = "nsc1"

// NextCursor mints the resume token for the page that follows last — the
// token Session.Do returns with a full page, for callers that page through
// SpatialIndex.Do by hand.
func NextCursor(kind Kind, last Hit) Cursor {
	return Cursor(fmt.Sprintf("%s:%s:%016x:%08x",
		cursorPrefix, kind, math.Float64bits(last.Dist2), uint32(last.ID)))
}

// decode parses the token back into the kind it was minted for and the
// resume position.
func (c Cursor) decode() (Kind, Hit, error) {
	parts := strings.Split(string(c), ":")
	if len(parts) != 4 || parts[0] != cursorPrefix {
		return KindInvalid, Hit{}, fmt.Errorf("engine: malformed cursor %q", string(c))
	}
	kind, err := ParseKind(parts[1])
	if err != nil {
		return KindInvalid, Hit{}, fmt.Errorf("engine: malformed cursor %q: %v", string(c), err)
	}
	bits, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return KindInvalid, Hit{}, fmt.Errorf("engine: malformed cursor %q: bad distance", string(c))
	}
	id, err := strconv.ParseUint(parts[3], 16, 32)
	if err != nil {
		return KindInvalid, Hit{}, fmt.Errorf("engine: malformed cursor %q: bad id", string(c))
	}
	return kind, Hit{ID: int32(uint32(id)), Dist2: math.Float64frombits(bits)}, nil
}

// hitAfter reports whether h strictly follows after in kind's canonical
// order (the resume predicate of cursor paging).
func hitAfter(kind Kind, h, after Hit) bool {
	if kind == KNN {
		if h.Dist2 != after.Dist2 {
			return h.Dist2 > after.Dist2
		}
		return h.ID > after.ID
	}
	return h.ID > after.ID
}

// skipThrough drops the prefix of canonical-order hits at or before after.
func skipThrough(hits []Hit, kind Kind, after Hit) []Hit {
	i := sort.Search(len(hits), func(i int) bool { return hitAfter(kind, hits[i], after) })
	return hits[i:]
}
