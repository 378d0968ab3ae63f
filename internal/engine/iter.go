package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// This file is the streaming result path: the lazy HitIterator behind Stream
// and paginated requests, on raw contenders and on snapshot views alike (an
// unpaginated Do is the eager executor's, exec.go). The design constraint is
// the canonical hit order (see Hit): ascending ID for the boolean kinds,
// ascending (Dist2, ID) for KNN. Laziness under that order comes from zone
// maps — per-page (min, max) item-ID ranges derived from the RAM-resident
// page layout at build time, like the page MBRs. A contender only names its
// candidate pages with their zones (traverser.zonePages); the one pageStream
// reads them in ascending zone-min order and emits a buffered hit only once
// its ID precedes every unread zone, so a consumer that stops pulling (Limit
// satisfied) leaves the remaining pages unread: early termination at
// page-read granularity. Like the eager traversals, the stream checks ctxErr
// before every read.

// HitIterator is a lazy stream of hits in the canonical per-kind order.
// Obtain one with Stream; drain it with Next until it reports false, then
// check Err (a false Next means either exhaustion or failure). Stats reports
// the execution record of the work performed so far — under a Limit it
// reflects only the pages actually read. Close releases the iterator's
// pooled scratch; callers must Close every iterator they obtain, drained or
// not (one dropped without Close is garbage-collected, but its scratch does
// not return to the pool).
type HitIterator interface {
	// Next returns the next hit in canonical order. ok == false means the
	// stream is exhausted or failed; check Err to distinguish.
	Next() (h Hit, ok bool)
	// Err returns the first error the stream hit (context cancellation), or
	// nil.
	Err() error
	// Stats returns the execution record of the work performed so far.
	Stats() QueryStats
	// Close releases the iterator. It is idempotent.
	Close()
}

// Cursor is an opaque resume token for paginated requests. A Result whose
// page filled its Limit carries the cursor of the next page; passing it in
// Request.Cursor resumes the stream strictly after the last returned hit.
// Cursors are only meaningful against the same index and item set they were
// minted on; they encode the request kind and the last hit's canonical
// position, nothing else.
type Cursor string

// cursorPrefix versions the token format.
const cursorPrefix = "nsc1"

// NextCursor mints the resume token for the page that follows last — the
// helper drivers use when they drain a Stream by hand instead of going
// through Session.Do.
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

// Stream opens a lazy iterator over req's hits on ix. It validates the
// request (pagination fields included), applies the cursor and Offset/Limit
// stages, and returns the composed pipeline; the caller must Close it.
// Every engine contender and snapshot view runs Range, Point and
// WithinDistance through the zone-map pageStream — under a Limit, pages
// beyond the last emitted hit are never read; KNN, and every kind on other
// SpatialIndex implementations, fall back to a buffered drain of Do (correct,
// but without the early-stop I/O savings).
//
// A page's record counts what the stream did, which is not always what Do's
// traversal counts. Drained to the end, the stream reads exactly Do's pages
// (PagesRead), emits Do's hits (Results) and tests Do's delta entries
// (DeltaEntries); ShardsTouched is the number of shards admitted, as in Do,
// though under a Limit some may never be read. The rest differ: IndexReads
// counts candidate pages (R-tree directory nodes included), not seed-tree
// nodes or grid cells; EntriesTested counts every resident of a page read,
// and no R-tree child box; the R-tree's LevelNodes and Levels stay empty;
// and a WithinDistance Tombstone is a deleted item inside
// the sphere, where Do counts those inside its bounding box. No page's
// record feeds a planner.
func Stream(ctx context.Context, ix SpatialIndex, req Request) (HitIterator, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	var after *Hit
	if req.Cursor != "" {
		_, h, err := req.Cursor.decode()
		if err != nil { // Validate already checked; defensive
			return nil, &RequestError{Kind: req.Kind, Field: "Cursor", Reason: err.Error()}
		}
		after = &h
	}
	base := req
	base.Limit, base.Offset, base.Cursor = 0, 0, ""
	it, err := rawStream(ctx, ix, base, after)
	if err != nil {
		return nil, err
	}
	if req.Offset > 0 || req.Limit > 0 {
		it = &clipIter{it: it, skip: req.Offset, limit: req.Limit}
	}
	return it, nil
}

// rawStream opens the unclipped stream: the zone-map stream on an engine
// contender (a snapshot view's with its overlay), a buffered fallback
// otherwise — and for KNN always: its result set is bounded by K, so
// laziness buys nothing, and an unpaginated Do is the executor's
// bound-tightening search. req must carry no pagination fields.
func rawStream(ctx context.Context, ix SpatialIndex, req Request, after *Hit) (HitIterator, error) {
	if req.Kind != KNN {
		switch t := ix.(type) {
		case *snapView:
			return stream(ctx, t, t.snap, req, after), nil
		case traverser:
			return stream(ctx, t, nil, req, after), nil
		}
	}
	var hits []Hit
	st, err := ix.Do(ctx, req, func(h Hit) { hits = append(hits, h) })
	if err != nil {
		return nil, err
	}
	if after != nil {
		hits = skipThrough(hits, req.Kind, *after)
	}
	return &sliceIter{hits: hits, st: st}, nil
}

// doPaginated serves a paginated request through the lazy stream on behalf
// of an index's Do method, so a Limit/Offset/Cursor request means the same
// thing on every execution surface. Do's all-or-nothing emission contract is
// preserved: the page — at most the Offset+Limit window — is buffered and
// emitted only after the stream finishes cleanly.
func doPaginated(ctx context.Context, ix SpatialIndex, req Request, visit func(Hit)) (QueryStats, error) {
	it, err := Stream(ctx, ix, req)
	if err != nil {
		return QueryStats{}, err
	}
	return emitDrained(it, visit)
}

// emitDrained drains it, emits what it yielded only once it has finished
// cleanly (Do's all-or-nothing contract), and closes it.
func emitDrained(it HitIterator, visit func(Hit)) (QueryStats, error) {
	defer it.Close()
	var hits []Hit
	for {
		h, ok := it.Next()
		if !ok {
			break
		}
		hits = append(hits, h)
	}
	if err := it.Err(); err != nil {
		return QueryStats{}, err
	}
	for _, h := range hits {
		visit(h)
	}
	return it.Stats(), nil
}

// skipThrough drops the prefix of canonical-order hits at or before after.
func skipThrough(hits []Hit, kind Kind, after Hit) []Hit {
	i := sort.Search(len(hits), func(i int) bool { return hitAfter(kind, hits[i], after) })
	return hits[i:]
}

// sliceIter serves an eagerly computed hit slice (KNN top-k, fallback
// drains) through the iterator surface.
type sliceIter struct {
	hits []Hit
	i    int
	st   QueryStats
	err  error
}

func (s *sliceIter) Next() (Hit, bool) {
	if s.err != nil || s.i >= len(s.hits) {
		return Hit{}, false
	}
	h := s.hits[s.i]
	s.i++
	return h, true
}

func (s *sliceIter) Err() error        { return s.err }
func (s *sliceIter) Stats() QueryStats { return s.st }
func (s *sliceIter) Close()            {}

// clipIter applies Offset/Limit to an underlying stream: skip hits, then
// pass through at most limit (0 = unlimited). Its Stats are the underlying
// record with Results rewritten to the clipped emission count, so a
// paginated Result keeps the Stats.Results == len(Hits) invariant.
type clipIter struct {
	it      HitIterator
	skip    int
	limit   int
	emitted int64
	done    bool
}

func (c *clipIter) Next() (Hit, bool) {
	if c.done {
		return Hit{}, false
	}
	for c.skip > 0 {
		if _, ok := c.it.Next(); !ok {
			c.done = true
			return Hit{}, false
		}
		c.skip--
	}
	if c.limit > 0 && c.emitted >= int64(c.limit) {
		c.done = true
		return Hit{}, false
	}
	h, ok := c.it.Next()
	if !ok {
		c.done = true
		return Hit{}, false
	}
	c.emitted++
	return h, true
}

func (c *clipIter) Err() error { return c.it.Err() }

func (c *clipIter) Stats() QueryStats {
	st := c.it.Stats()
	st.Results = c.emitted
	return st
}

func (c *clipIter) Close() { c.it.Close() }

// idZone is the (min, max) item-ID range of one page — the zone map entry
// the stream orders and prunes pages by. Like the page MBRs, zones are
// RAM-resident metadata computed with the layout at build time; consulting
// them is not page I/O.
type idZone struct {
	min, max int32
}

// storeZones derives the zone map of a page store. Pages without element
// payload (an R-tree internal node's placeholder) get an empty zone
// (min > max).
func storeZones(s *pager.Store) []idZone {
	zones := make([]idZone, s.NumPages())
	for p := range zones {
		z := idZone{min: math.MaxInt32, max: -1}
		for _, id := range s.Page(pager.PageID(p)) {
			if id < 0 {
				continue
			}
			z.min, z.max = min(z.min, id), max(z.max, id)
		}
		zones[p] = z
	}
	return zones
}

// hitHeap is a min-heap of hits by ID — the stream's pending buffer (page
// contents are laid out spatially, not by ID).
type hitHeap []Hit

func (h *hitHeap) push(x Hit) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].ID <= s[i].ID {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *hitHeap) pop() Hit {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && s[l].ID < s[least].ID {
			least = l
		}
		if r < len(s) && s[r].ID < s[least].ID {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// zonePage is one candidate of the stream: page p with the (min, max) ID
// zone of its residents — of its subtree, for an R-tree directory node —
// refined against the coordinate sidecar coords from slot off on. coords nil
// marks a delta chunk of the overlay (p its index in the snapshot's chunks):
// RAM-resident, so taking it reads no page.
type zonePage struct {
	min, max int32
	p        pager.PageID
	off      int32
	coords   *pager.Coords
}

func (a *zonePage) before(b *zonePage) bool {
	return a.min < b.min || a.min == b.min && a.p < b.p
}

// pageStream is the one lazy stream under every contender and view: a
// min-heap of candidate pages by zone min (ties by page, so an R-tree
// directory node precedes the children it shares a min with) and a min-heap
// of pending hits. Next takes the least unread candidate — reads the page and
// refines its residents, or tests a delta chunk's entries — until the least
// pending hit precedes every unread zone. Under an overlay it drops the
// residents the snapshot tombstoned and translates the rest through baseIDs;
// zones were translated when the stream was opened (both ascend).
type pageStream struct {
	ctx     context.Context
	src     pager.PageSource
	ov      *Snapshot // nil on a raw contender
	pred    predicate
	after   int32 // resume position; -1 = from the start
	sc      *streamScratch
	cands   []zonePage // min-heap by before
	pending hitHeap
	st      QueryStats
	err     error
}

// streamScratch is a stream's pooled candidate and pending buffers; cands
// keeps the full candidate list so Close can clear the sidecar pointers.
type streamScratch struct {
	cands   []zonePage
	pending hitHeap
}

var streamScratchPool = sync.Pool{New: func() any {
	return &streamScratch{cands: make([]zonePage, 0, 64), pending: make(hitHeap, 0, 64)}
}}

// stream is the lazy twin of execute: req's hits on ix strictly after the
// resume position (nil = from the start), with the overlay ov (nil on a raw
// contender) applied inside the one loop. The contender appends its candidate
// pages; under an overlay their zones are translated to dataset IDs and every
// delta chunk the request admits joins them as one more candidate. req is an
// ascending-ID kind and carries no pagination fields.
func stream(ctx context.Context, ix traverser, ov *Snapshot, req Request, after *Hit) HitIterator {
	sc := streamScratchPool.Get().(*streamScratch)
	ps := &pageStream{ctx: ctx, ov: ov, pred: newPredicate(req), after: -1,
		sc: sc, cands: sc.cands[:0], pending: sc.pending[:0]}
	if after != nil {
		ps.after = after.ID
	}
	ps.src = ix.zonePages(req, ps)
	ps.st.IndexReads = int64(len(ps.cands))
	if ov != nil {
		for i := range ps.cands {
			z := &ps.cands[i]
			z.min, z.max = ov.baseIDs[z.min], ov.baseIDs[z.max]
		}
		for i, c := range ov.chunks {
			if ps.pred.admits(c.mbr) {
				ps.cands = append(ps.cands, zonePage{min: c.ids[0], max: c.last(), p: pager.PageID(i)})
			}
		}
	}
	for i := len(ps.cands)/2 - 1; i >= 0; i-- {
		ps.down(i)
	}
	sc.cands = ps.cands
	return ps
}

// add appends page p, with zone z and sidecar coords, to the candidates — a
// contender's one obligation to the stream. A zone without element payload
// is dropped.
func (ps *pageStream) add(p pager.PageID, z idZone, coords *pager.Coords) {
	if z.max < z.min {
		return
	}
	ps.cands = append(ps.cands, zonePage{min: z.min, max: z.max, p: p,
		off: int32(coords.PageOffset(p)), coords: coords})
}

func (ps *pageStream) Next() (Hit, bool) {
	for ps.err == nil {
		if len(ps.pending) > 0 && (len(ps.cands) == 0 || ps.pending[0].ID < ps.cands[0].min) {
			return ps.pending.pop(), true
		}
		if len(ps.cands) == 0 {
			break
		}
		z := ps.cands[0]
		n := len(ps.cands) - 1
		ps.cands[0] = ps.cands[n]
		ps.cands = ps.cands[:n]
		ps.down(0)
		if z.max <= ps.after {
			continue // cursor pushdown: the whole zone precedes the resume point
		}
		if ps.err = ctxErr(ps.ctx); ps.err != nil {
			break
		}
		if z.coords == nil {
			ps.takeChunk(ps.ov.chunks[z.p])
		} else {
			ps.takePage(&z)
		}
	}
	return Hit{}, false
}

// down restores the candidate heap below slot i.
func (ps *pageStream) down(i int) {
	h := ps.cands
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l].before(&h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(&h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// takePage reads candidate page z and buffers its residents that follow the
// resume position and pass the request's test against the sidecar — a
// tombstoned one is dropped after the test, a live one takes its dataset ID.
func (ps *pageStream) takePage(z *zonePage) {
	ps.st.PagesRead++
	for i, id := range ps.src.ReadPage(z.p) {
		if id < 0 {
			continue // an R-tree directory node's placeholder
		}
		g := id
		if ps.ov != nil {
			g = ps.ov.baseIDs[id]
		}
		if g <= ps.after {
			continue
		}
		ps.st.EntriesTested++
		slot := int(z.off) + i
		h, ok := Hit{ID: g}, false
		if ps.pred.byDist {
			h, ok = ps.pred.match(g, z.coords.BoxAt(slot))
		} else {
			ok = z.coords.IntersectsAt(slot, ps.pred.box)
		}
		if !ok {
			continue
		}
		if ps.ov != nil && ps.ov.dead(id) {
			ps.st.Tombstones++
			continue
		}
		ps.st.Results++
		ps.pending.push(h)
	}
}

// takeChunk tests the entries of delta chunk c that follow the resume
// position and buffers the matches.
func (ps *pageStream) takeChunk(c *deltaChunk) {
	for i, id := range c.ids {
		if id <= ps.after {
			continue
		}
		ps.st.DeltaEntries++
		if h, ok := ps.pred.match(id, c.boxes[i]); ok {
			ps.st.Results++
			ps.pending.push(h)
		}
	}
}

func (ps *pageStream) Err() error        { return ps.err }
func (ps *pageStream) Stats() QueryStats { return ps.st }

// Close recycles the pooled buffers, clearing the candidates' sidecar
// pointers first so the pool pins no retired build. Idempotent; Stats stays
// valid, and a Next after Close sees no candidates and no pending hits and
// reports exhaustion.
func (ps *pageStream) Close() {
	if ps.sc == nil {
		return
	}
	clear(ps.sc.cands)
	ps.sc.cands, ps.sc.pending = ps.sc.cands[:0], ps.pending[:0]
	streamScratchPool.Put(ps.sc)
	ps.sc, ps.cands, ps.pending = nil, nil, nil
}

// queryBox is the traversal box of an ascending-ID kind: the range box
// itself, the degenerate stab box of Point, the bounding box of the
// WithinDistance sphere.
func queryBox(req Request) geom.AABB {
	switch req.Kind {
	case Point:
		return geom.Box(req.Center, req.Center)
	case WithinDistance:
		return geom.BoxAround(req.Center, req.Radius)
	}
	return req.Box
}

// predicate is the exact test of a request, shared by the stream and the
// delta scan: a box meets the query box (Range, Point), or lies within r2 of
// the center (WithinDistance; KNN's delta pass lowers r2 to its k-th best
// distance as candidates arrive).
type predicate struct {
	byDist bool
	box    geom.AABB
	center geom.Vec
	r2     float64
}

func newPredicate(req Request) predicate {
	return predicate{byDist: req.Kind == WithinDistance || req.Kind == KNN, box: queryBox(req),
		center: req.Center, r2: req.Radius * req.Radius}
}

// admits reports whether a region bounded by mbr can hold a match.
func (p *predicate) admits(mbr geom.AABB) bool {
	if p.byDist {
		return mbr.Dist2Point(p.center) <= p.r2
	}
	return mbr.Intersects(p.box)
}

// match tests item id with box b, returning its hit when it passes.
func (p *predicate) match(id int32, b geom.AABB) (Hit, bool) {
	if p.byDist {
		d2 := b.Dist2Point(p.center)
		return Hit{ID: id, Dist2: d2}, d2 <= p.r2
	}
	return Hit{ID: id}, b.Intersects(p.box)
}
