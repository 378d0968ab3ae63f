package engine

import (
	"slices"
	"sort"

	"neurospatial/internal/geom"
)

// This file is the snapshot overlay's delta: the items inserted or updated
// since the base build, kept as an ID-ordered sequence of small immutable
// chunks that consecutive epochs share structurally. A commit rewrites only
// the chunks its batch touches (mergeDelta); a request tests only the entries
// of chunks whose MBR its predicate admits (deltaIter).

// deltaChunkCap bounds a chunk's entry count: one default page. A dataset
// configured with smaller pages (DatasetOptions.PageSize) uses that size
// instead, so a chunk always fits the one page DatasetStats.LayoutPages
// counts it as.
const deltaChunkCap = 64

// deltaChunk is one immutable run of delta entries in ascending ID order.
// Consecutive chunks cover disjoint, ascending ID ranges; none is empty.
type deltaChunk struct {
	ids   []int32     // ascending global IDs
	boxes []geom.AABB // boxes[i] is the live box of ids[i]
	mbr   geom.AABB   // union of boxes: the chunk's pruning bound
}

func (c *deltaChunk) last() int32 { return c.ids[len(c.ids)-1] }

// deltaSeek locates the first delta entry whose ID is >= id: its chunk and
// its slot in the chunk. ci == len(chunks) when every entry precedes id.
func deltaSeek(chunks []*deltaChunk, id int32) (ci, i int) {
	if len(chunks) == 0 || chunks[len(chunks)-1].last() < id {
		return len(chunks), 0
	}
	ci = sort.Search(len(chunks), func(j int) bool { return chunks[j].last() >= id })
	i, _ = slices.BinarySearch(chunks[ci].ids, id)
	return ci, i
}

// staged is the net effect of a batch on one item ID.
type staged struct {
	box  geom.AABB
	live bool  // the item is live after the batch, with this box
	tomb int32 // base-local ID of the base version the batch supersedes, or -1
}

// mergeDelta applies a batch to the previous epoch's chunk sequence: ids are
// the batch's delta-relevant item IDs in ascending order, stg their net
// effects. An ID lands in the chunk covering its range (fresh IDs are the
// largest, so inserts land at the tail); a chunk no ID lands in is shared
// with the previous epoch, a touched one is rewritten into chunks of at most
// chunkCap entries. firstDirty is the first position at which next differs
// from prev; grow is the change in entry count.
func mergeDelta(prev []*deltaChunk, ids []int32, stg map[int32]staged, chunkCap int) (next []*deltaChunk, firstDirty, grow int) {
	if len(ids) == 0 {
		return prev, len(prev), 0
	}
	if len(prev) == 0 {
		prev = []*deltaChunk{{}} // an empty chunk for the batch to land in
	}
	next = make([]*deltaChunk, 0, len(prev)+len(ids)/chunkCap+1)
	firstDirty = -1
	for ci, c := range prev {
		// The chunk takes the IDs below its successor's first (the last
		// chunk: all that remain).
		hi := len(ids)
		if ci+1 < len(prev) {
			hi, _ = slices.BinarySearch(ids, prev[ci+1].ids[0])
		}
		if hi == 0 {
			next = append(next, c)
			continue
		}
		if firstDirty < 0 {
			firstDirty = len(next)
		}
		before := len(next)
		next = appendMerged(next, c, ids[:hi], stg, chunkCap)
		grow += countEntries(next[before:]) - len(c.ids)
		ids = ids[hi:]
	}
	return next, firstDirty, grow
}

func countEntries(chunks []*deltaChunk) (n int) {
	for _, c := range chunks {
		n += len(c.ids)
	}
	return n
}

// appendMerged merges chunk c with the batch's changes to its ID range and
// appends the resulting chunks (none, when every entry died) to out.
func appendMerged(out []*deltaChunk, c *deltaChunk, ids []int32, stg map[int32]staged, chunkCap int) []*deltaChunk {
	n := len(c.ids) + len(ids)
	mIDs, mBoxes := make([]int32, 0, n), make([]geom.AABB, 0, n)
	i := 0
	for _, id := range ids {
		for ; i < len(c.ids) && c.ids[i] < id; i++ {
			mIDs, mBoxes = append(mIDs, c.ids[i]), append(mBoxes, c.boxes[i])
		}
		if i < len(c.ids) && c.ids[i] == id {
			i++ // superseded by the batch
		}
		if s := stg[id]; s.live {
			mIDs, mBoxes = append(mIDs, id), append(mBoxes, s.box)
		}
	}
	mIDs, mBoxes = append(mIDs, c.ids[i:]...), append(mBoxes, c.boxes[i:]...)
	for lo := 0; lo < len(mIDs); lo += chunkCap {
		hi := min(lo+chunkCap, len(mIDs))
		nc := &deltaChunk{ids: mIDs[lo:hi:hi], boxes: mBoxes[lo:hi:hi], mbr: geom.EmptyAABB()}
		for _, b := range nc.boxes {
			nc.mbr = nc.mbr.Union(b)
		}
		out = append(out, nc)
	}
	return out
}

// deltaIter is the eager executor's scan of the delta overlay: it yields a
// request's delta hits in ascending global-ID order, skipping every chunk whose
// MBR the request's predicate rejects — Range and Point: the MBR misses the
// query box; WithinDistance and KNN: the MBR lies farther than r2 from the
// center. For KNN the caller lowers pred.r2 to its k-th best distance as
// candidates arrive (ties are kept; the accumulator breaks them by ID).
// entries counts the entries tested, so it tracks the answer's neighbourhood,
// not the overlay.
type deltaIter struct {
	chunks  []*deltaChunk // chunks not yet considered
	pred    predicate
	cur     *deltaChunk
	i       int // next slot of cur
	entries int64
}

func newDeltaIter(chunks []*deltaChunk, req Request) deltaIter {
	return deltaIter{chunks: chunks, pred: newPredicate(req)}
}

func (d *deltaIter) Next() (Hit, bool) {
	for {
		if d.cur == nil {
			if len(d.chunks) == 0 {
				return Hit{}, false
			}
			if c := d.chunks[0]; d.pred.admits(c.mbr) {
				d.cur, d.i = c, 0
			}
			d.chunks = d.chunks[1:]
			continue
		}
		for d.i < len(d.cur.ids) {
			id, b := d.cur.ids[d.i], d.cur.boxes[d.i]
			d.i++
			d.entries++
			if h, ok := d.pred.match(id, b); ok {
				return h, true
			}
		}
		d.cur = nil
	}
}

// predicate is the exact test of a request, the one deltaIter applies: a box
// meets the query box (Range, Point), or lies within r2 of the center
// (WithinDistance; KNN's delta pass lowers r2 to its k-th best distance as
// candidates arrive).
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
