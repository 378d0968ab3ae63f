package pager

import "neurospatial/internal/geom"

// Coords is the struct-of-arrays coordinate sidecar of a Store: the AABB
// min/max coordinates of every element, stored as six contiguous per-axis
// arrays in page-layout order. A range/point filter over one page becomes a
// sequential scan of six flat float64 runs instead of a per-element strided
// decode of RAM AABB structs — the cache-conscious layout the hot read path
// scans after ReadPage returns the page's resident IDs.
//
// Coords is metadata *beside* the page bytes, keyed by PageID and slice
// position: reads still go through PageSource.ReadPage, so buffer pools,
// Counting taps, snapshots and CoW remaps observe exactly the accounting they
// did before (see the README migration note). The engine's contenders keep
// no other per-item geometry: an item's box is BoxAt of its slot, and kNN
// ranks a page's residents by Dist2At without materializing a box.
//
// A Coords is immutable after BuildCoords and safe for concurrent readers.
type Coords struct {
	// off[p] is the first SoA slot of page p; entry i of page p (the element
	// at position i of Store.Page(p)) lives at slot off[p]+i. len(off) is
	// NumPages+1, so off[p+1]-off[p] is page p's resident count.
	off []int32
	// minX..maxZ hold the per-axis bounds, one slot per laid-out element.
	// Slots of negative (placeholder) IDs hold an empty box that intersects
	// nothing.
	minX, minY, minZ []float64
	maxX, maxY, maxZ []float64
}

// BuildCoords derives the SoA sidecar of a built store. boxOf resolves the
// MBR of a non-negative element ID (a builder's transient input — the sidecar
// is a copy and keeps no reference to it); negative placeholder entries
// (R-tree internal-node pages) get an empty never-intersecting slot.
func BuildCoords(s *Store, boxOf func(id int32) geom.AABB) *Coords {
	total := 0
	for p := 0; p < s.NumPages(); p++ {
		total += len(s.Page(PageID(p)))
	}
	c := &Coords{
		off:  make([]int32, s.NumPages()+1),
		minX: make([]float64, total), minY: make([]float64, total), minZ: make([]float64, total),
		maxX: make([]float64, total), maxY: make([]float64, total), maxZ: make([]float64, total),
	}
	empty := geom.EmptyAABB()
	slot := 0
	for p := 0; p < s.NumPages(); p++ {
		c.off[p] = int32(slot)
		for _, id := range s.Page(PageID(p)) {
			b := empty
			if id >= 0 {
				b = boxOf(id)
			}
			c.minX[slot], c.minY[slot], c.minZ[slot] = b.Min.X, b.Min.Y, b.Min.Z
			c.maxX[slot], c.maxY[slot], c.maxZ[slot] = b.Max.X, b.Max.Y, b.Max.Z
			slot++
		}
	}
	c.off[s.NumPages()] = int32(slot)
	return c
}

// PageOffset returns the first SoA slot of page p (add the element's position
// within the page to address its slot).
func (c *Coords) PageOffset(p PageID) int { return int(c.off[p]) }

// BoxAt returns the box in slot i: a page's boxes as sequential loads, where
// an ID-indexed box array is a cache miss per resident.
func (c *Coords) BoxAt(i int) geom.AABB {
	return geom.AABB{Min: geom.Vec{X: c.minX[i], Y: c.minY[i], Z: c.minZ[i]},
		Max: geom.Vec{X: c.maxX[i], Y: c.maxY[i], Z: c.maxZ[i]}}
}

// Dist2At returns the squared distance from p to the box in slot i — what the
// kNN search ranks a page's residents by, read from the six runs with no
// AABB materialized: geom.AABB.Dist2Point's arithmetic, bit for bit, in one
// call with the per-axis kernel inlined.
func (c *Coords) Dist2At(i int, p geom.Vec) float64 {
	dx := geom.AxisGap(c.minX[i], c.maxX[i], p.X)
	dy := geom.AxisGap(c.minY[i], c.maxY[i], p.Y)
	dz := geom.AxisGap(c.minZ[i], c.maxZ[i], p.Z)
	return dx*dx + dy*dy + dz*dz
}

// IntersectsAt reports whether the box in slot i intersects q — the
// sequential-load form of geom.AABB.Intersects.
func (c *Coords) IntersectsAt(i int, q geom.AABB) bool {
	return c.minX[i] <= q.Max.X && c.maxX[i] >= q.Min.X &&
		c.minY[i] <= q.Max.Y && c.maxY[i] >= q.Min.Y &&
		c.minZ[i] <= q.Max.Z && c.maxZ[i] >= q.Min.Z
}

// FilterPage emits every non-negative resident of page p whose box intersects
// q, scanning the SoA arrays sequentially. ids must be the page's residents
// as returned by ReadPage (position-aligned with the sidecar); the return
// value is the number of box tests performed (the EntriesTested accounting of
// the strided filter it replaces).
func (c *Coords) FilterPage(p PageID, ids []int32, q geom.AABB, emit func(int32)) int {
	base := int(c.off[p])
	tested := 0
	for i, id := range ids {
		if id < 0 {
			continue
		}
		tested++
		if c.IntersectsAt(base+i, q) {
			emit(id)
		}
	}
	return tested
}
