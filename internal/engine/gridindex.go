package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"neurospatial/internal/geom"
	"neurospatial/internal/grid"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// GridOptions configures the grid engine index.
type GridOptions struct {
	// PageSize is the number of elements per data page. Default 64 (the
	// FLAT page size, so page counts are comparable).
	PageSize int
	// PerCell is the target mean number of items per grid cell. Default 8.
	PerCell float64
}

func (o GridOptions) sanitize() GridOptions {
	if o.PageSize <= 0 {
		o.PageSize = 64
	}
	if o.PerCell <= 0 {
		o.PerCell = 8
	}
	return o
}

// Grid is the thin grid-backed engine index: a uniform cell directory over
// item centers (each item registered in exactly one cell — the cell holding
// its box center), with elements laid out on pager pages in cell-major
// order so spatially close items share pages. A query inspects the cells
// overlapping the range expanded by the largest item half-extent (the
// standard center-assignment correction), reads each candidate's data page
// through the configured PageSource, and refines against the exact box.
//
// Stats mapping: IndexReads counts cells inspected (the directory is
// RAM-resident), PagesRead counts distinct data pages read, EntriesTested
// counts candidate refinements. Hits are emitted in cell-major order,
// ascending ID within a cell — a fixed, worker-count-independent order.
type Grid struct {
	opts    GridOptions
	g       *grid.Grid
	bounds  geom.AABB
	maxHalf float64
	// pad is what kNN expands a cell by to bound its residents' boxes:
	// maxHalf, plus a billionth of the grid's extent so that a center which
	// rounding put one cell past a face it sits on is still inside the bound.
	pad    float64
	store  *pager.Store
	pageOf []pager.PageID
	// coords is the struct-of-arrays sidecar of store, the index's only copy
	// of the item boxes; itemOff[id] is item id's slot in it (cell-major
	// layout position), so the cell-major refinement sweep reads the
	// coordinate runs sequentially.
	coords  *pager.Coords
	itemOff []int32
	// boxOf is the exact-geometry accessor bound once per build (a per-query
	// closure would be a hot-path allocation).
	boxOf func(int32) geom.AABB
	src   pager.PageSource
}

// NewGrid returns an unbuilt grid engine index.
func NewGrid(opts GridOptions) *Grid { return &Grid{opts: opts.sanitize()} }

// Name implements SpatialIndex.
func (gx *Grid) Name() string { return "grid" }

// Build implements SpatialIndex. Rebuilding restores cold reads from the
// new store: an attached PageSource is dropped, since a pool wrapping the
// previous store would serve stale pages.
func (gx *Grid) Build(items []rtree.Item) error { return gx.build(items, 0, 0, 0) }

// buildFixed is Build with the cell directory's dimensions pinned instead of
// auto-sized — the durable-snapshot recovery path, which must reproduce the
// recorded build exactly even if the auto-sizing heuristic changes.
func (gx *Grid) buildFixed(items []rtree.Item, nx, ny, nz int) error {
	return gx.build(items, nx, ny, nz)
}

func (gx *Grid) build(items []rtree.Item, nx, ny, nz int) error {
	*gx = Grid{opts: gx.opts, bounds: geom.EmptyAABB()}
	// boxes is transient — the centers, the bounds and BuildCoords read it;
	// the sidecar is the only copy of the boxes the index keeps. Nothing is
	// installed until the build has succeeded, so a failed build leaves the
	// index empty.
	boxes := make([]geom.AABB, len(items))
	bounds, maxHalf := geom.EmptyAABB(), 0.0
	for _, it := range items {
		if it.ID < 0 || int(it.ID) >= len(items) {
			return fmt.Errorf("engine: grid item ID %d not dense in [0,%d)", it.ID, len(items))
		}
		boxes[it.ID] = it.Box
		bounds = bounds.Union(it.Box)
		half := it.Box.Size().Scale(0.5)
		for _, h := range []float64{half.X, half.Y, half.Z} {
			if h > maxHalf {
				maxHalf = h
			}
		}
	}
	if len(items) == 0 {
		return nil
	}

	// Cell directory over item centers: point boxes land in exactly one
	// cell, so candidates need no per-query deduplication.
	centers := make([]geom.AABB, len(items))
	for id, b := range boxes {
		c := b.Center()
		centers[id] = geom.Box(c, c)
	}
	var g *grid.Grid
	var err error
	if nx > 0 && ny > 0 && nz > 0 {
		g, err = grid.New(bounds, nx, ny, nz, centers)
	} else {
		g, err = grid.NewAuto(bounds, centers, gx.opts.PerCell)
	}
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	// The centers were only for binning: refinement reads the SoA sidecar,
	// and 48 bytes an item per generation is what a compaction would
	// otherwise keep alive beside it.
	g.DropBoxes()

	// Page layout: fill pages in cell-major order (ascending ID within a
	// cell), continuously across cell boundaries so pages stay near-full.
	builder, err := pager.NewBuilder(gx.opts.PageSize)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	pageOf := make([]pager.PageID, len(items))
	itemOff := make([]int32, len(items))
	slot := int32(0)
	for c := 0; c < g.NumCells(); c++ {
		for _, id := range g.CellBoxes(c) {
			pageOf[id] = builder.Add(id)
			itemOff[id] = slot
			slot++
		}
	}
	size := bounds.Size()
	gx.g, gx.bounds, gx.maxHalf = g, bounds, maxHalf
	gx.pad = maxHalf + 1e-9*max(size.X, size.Y, size.Z)
	gx.store, gx.pageOf, gx.itemOff = builder.Build(), pageOf, itemOff
	gx.coords = pager.BuildCoords(gx.store, func(id int32) geom.AABB { return boxes[id] })
	gx.boxOf = func(id int32) geom.AABB { return gx.coords.BoxAt(int(gx.itemOff[id])) }
	return nil
}

// Bounds implements SpatialIndex.
func (gx *Grid) Bounds() geom.AABB { return gx.bounds }

// NumItems implements SpatialIndex.
func (gx *Grid) NumItems() int { return len(gx.itemOff) }

// source resolves the PageSource of one call (see pickSource), falling back
// to cold reads from the index's own store.
func (gx *Grid) source(req Request, passed pager.PageSource) pager.PageSource {
	if src := pickSource(req, passed, gx.src); src != nil {
		return src
	}
	return gx.store
}

// gridRangeScratch is the pooled per-query state of the grid range
// traversal. The cell visitor closure is bound once per pooled object (a
// per-query closure literal is a heap allocation). Cells are visited in
// ascending order and pages are filled in cell order, so the pages met never
// go back: next, the first page not yet read, is the whole read-page set. The
// cell directory has no early exit, so once ctx is canceled the visitor
// records the error and the remaining cells are skipped unread.
type gridRangeScratch struct {
	gx    *Grid
	ctx   context.Context
	q     geom.AABB
	src   pager.PageSource
	out   *idCollector
	stats QueryStats
	err   error
	next  pager.PageID
	cell  func(int, []int32)
}

var gridRangePool = sync.Pool{New: func() any {
	s := &gridRangeScratch{}
	s.cell = func(_ int, ids []int32) {
		if s.err != nil {
			return
		}
		s.stats.IndexReads++
		for _, id := range ids {
			if pg := s.gx.pageOf[id]; pg >= s.next {
				if s.err = s.ctx.Err(); s.err != nil {
					return
				}
				s.next = pg + 1
				s.src.ReadPage(pg)
				s.stats.PagesRead++
			}
			s.stats.EntriesTested++
			// Cell-major sweep ⇒ itemOff ascends ⇒ sequential SoA loads.
			if s.gx.coords.IntersectsAt(int(s.gx.itemOff[id]), s.q) {
				s.stats.Results++
				s.out.ids = append(s.out.ids, id)
			}
		}
	}
	return s
}}

func getGridRange(ctx context.Context, gx *Grid, q geom.AABB, src pager.PageSource, out *idCollector) *gridRangeScratch {
	s := gridRangePool.Get().(*gridRangeScratch)
	s.gx, s.ctx, s.q, s.src, s.out = gx, ctx, q, src, out
	s.stats, s.err, s.next = QueryStats{}, nil, 0
	return s
}

// putGridRange drops the references that would pin a context, source or
// collector alive and recycles the scratch.
func putGridRange(s *gridRangeScratch) {
	s.gx, s.ctx, s.src, s.out = nil, nil, nil, nil
	gridRangePool.Put(s)
}

// scan implements contender: the filtered cell traversal, IDs in cell-major
// order (ascending within a cell).
func (gx *Grid) scan(ctx context.Context, req Request, src pager.PageSource, out *idCollector) (QueryStats, error) {
	q := queryBox(req)
	s := getGridRange(ctx, gx, q, gx.source(req, src), out)
	defer putGridRange(s)
	gx.g.ForEachInRange(q.Expand(gx.maxHalf), s.cell)
	if s.err != nil {
		return QueryStats{}, s.err
	}
	return s.stats, nil
}

// itemBoxes implements contender.
func (gx *Grid) itemBoxes() func(int32) geom.AABB { return gx.boxOf }

// pageRuns calls fn, in ascending order, on every page a scan of q reads:
// those of the items registered in the cells q expanded by the largest
// half-extent overlaps (an item's cell is determined by its box center, so
// every true hit's page is among them). A cell's items are consecutive in the
// layout, so a cell covers the run of pages from its first item's to its
// last's; as in scan, the runs of ascending cells never go back, so a page is
// reported once by skipping what the previous cell reached.
func (gx *Grid) pageRuns(q geom.AABB, fn func(pager.PageID)) {
	next := pager.PageID(0)
	gx.g.ForEachInRange(q.Expand(gx.maxHalf), func(_ int, ids []int32) {
		if len(ids) == 0 {
			return
		}
		last := gx.pageOf[ids[len(ids)-1]]
		for p := max(next, gx.pageOf[ids[0]]); p <= last; p++ {
			fn(p)
		}
		next = last + 1
	})
}

// Do implements SpatialIndex through the shared executor. Range, Point and
// WithinDistance run as filtered cell traversals (with the exact Dist2Point
// refinement for the sphere kind); KNN is the executor's best-first search
// over the rings of cells around the center's cell (knnExpand).
func (gx *Grid) Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error) {
	return execute(ctx, gx, nil, req, visit)
}

// knnExpand implements traverser. The hierarchy is rings, then cells: ring r
// (ref ^r; ring 0 is the root) is the shell of cells at Chebyshev distance r
// from the center's cell. Expanding it inspects the shell (RAM steps, one
// IndexRead per cell), pushes each non-empty cell by the distance to its box
// expanded by pad — items are registered by center, so an item's box never
// escapes that expansion — and pushes ring r+1 by ringBound. A cell (ref >= 0)
// reads its residents' pages through the call's source, once per distinct page
// in the search as in the range path, and offers them.
func (gx *Grid) knnExpand(s *knnSearch, e knnEntry) error {
	c := s.req.Center
	if e.ref >= 0 {
		src := gx.source(s.req, nil)
		for _, id := range gx.g.CellBoxes(int(e.ref)) {
			if pg := gx.pageOf[id]; !s.seen.visited(int(s.pageBase + pg)) {
				if _, err := s.read(src, pg); err != nil {
					return err
				}
			}
			s.offer(id, gx.coords.Dist2At(int(gx.itemOff[id]), c)) // cell-major: sequential slots
		}
		return nil
	}
	r := int(^e.ref)
	cx, _, cy, _, cz, _ := gx.g.CellRange(geom.AABB{Min: c, Max: c})
	nx, ny, nz := gx.g.Dims()
	// Once k candidates are held, only cells a center within reach of c can
	// register in still matter: the shell is clipped to their range.
	x0, x1, y0, y1, z0, z1 := 0, nx-1, 0, ny-1, 0, nz-1
	if s.acc.Full() {
		x0, x1, y0, y1, z0, z1 = gx.g.CellRange(geom.BoxAround(c, math.Sqrt(s.acc.Bound())+gx.pad))
	}
	for iz := max(cz-r, z0); iz <= min(cz+r, z1); iz++ {
		for iy := max(cy-r, y0); iy <= min(cy+r, y1); iy++ {
			step := 1
			if r > 0 && iz != cz-r && iz != cz+r && iy != cy-r && iy != cy+r {
				step = 2 * r // inside the shell's z and y extent: its two x faces only
			}
			for ix := cx - r; ix <= cx+r; ix += step {
				if ix < x0 || ix > x1 {
					continue
				}
				s.st.IndexReads++
				if cell := gx.g.CellIndex(ix, iy, iz); len(gx.g.CellBoxes(cell)) > 0 {
					s.push(gx.g.CellBounds(cell).Expand(gx.pad).Dist2Point(c), int32(cell))
				}
			}
		}
	}
	if d2, ok := gx.ringBound(c, [3]int{cx, cy, cz}, [3]int{nx, ny, nz}, r+1); ok {
		s.push(d2, ^int32(r+1))
	}
	return nil
}

// ringBound is a lower bound on the squared distance from c to any item
// registered in ring r or beyond. Such an item's cell lies, on some axis, at
// least r cells from c's cell, so its center is past the far face of the cell
// r-1 out on that side, and its box reaches at most pad back towards c. The
// nearest such face over the sides that still have cells that far gives the
// bound; ok is false when no side has.
func (gx *Grid) ringBound(c geom.Vec, cell, dims [3]int, r int) (d2 float64, ok bool) {
	gap := math.Inf(1)
	lo, size := gx.bounds.Min, gx.bounds.Size()
	for a := 0; a < 3; a++ {
		w := size.Axis(a) / float64(dims[a])
		if i := cell[a] - r; i >= 0 {
			gap = min(gap, c.Axis(a)-(lo.Axis(a)+float64(i+1)*w))
		}
		if i := cell[a] + r; i < dims[a] {
			gap = min(gap, lo.Axis(a)+float64(i)*w-c.Axis(a))
		}
	}
	if math.IsInf(gap, 1) {
		return 0, false
	}
	gap = max(0, gap-gx.pad)
	return gap * gap, true
}

// Store implements Paged (nil before Build or when empty).
func (gx *Grid) Store() *pager.Store { return gx.store }

// NumPages implements Paged.
func (gx *Grid) NumPages() int {
	if gx.store == nil {
		return 0
	}
	return gx.store.NumPages()
}

// PageOf implements Paged.
func (gx *Grid) PageOf(id int32) pager.PageID {
	if id < 0 || int(id) >= len(gx.pageOf) {
		return pager.InvalidPage
	}
	return gx.pageOf[id]
}

// PagesInRange implements Paged: a one-range PagesInRanges.
func (gx *Grid) PagesInRange(q geom.AABB) []pager.PageID {
	return pager.Pages(gx.PagesInRanges(nil, []geom.AABB{q}))
}

// PagesInRanges implements prefetch.PageGeometry. A range's pages are the
// distinct pages of its candidates (pageRuns'), in ascending order; per window
// of pager.RangeWindow ranges, the pages of all its ranges are merged in
// ascending order, each once with the mask of the ranges that read it. The
// merge sorts the window's pages in dst's tail, so it allocates only when dst
// is short.
func (gx *Grid) PagesInRanges(dst []pager.RangePage, boxes []geom.AABB) []pager.RangePage {
	if gx.g == nil {
		return dst
	}
	for w, lo := int32(0), 0; lo < len(boxes); w, lo = w+1, lo+pager.RangeWindow {
		start := len(dst)
		for b, q := range boxes[lo:min(lo+pager.RangeWindow, len(boxes))] {
			gx.pageRuns(q, func(p pager.PageID) {
				dst = append(dst, pager.RangePage{Page: p, Window: w, Mask: 1 << b})
			})
		}
		run := dst[start:]
		slices.SortFunc(run, func(a, b pager.RangePage) int { return cmp.Compare(a.Page, b.Page) })
		n := 0
		for i := range run {
			if n > 0 && run[n-1].Page == run[i].Page {
				run[n-1].Mask |= run[i].Mask
			} else {
				run[n] = run[i]
				n++
			}
		}
		dst = dst[:start+n]
	}
	return dst
}

// SetSource implements Paged.
func (gx *Grid) SetSource(src pager.PageSource) { gx.src = src }

// Source implements Paged.
func (gx *Grid) Source() pager.PageSource { return gx.src }

// PagedQuery implements Paged (and prefetch.Served).
func (gx *Grid) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	pagedQuery(gx, q, pool, visit)
}
