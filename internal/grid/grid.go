// Package grid provides a uniform spatial hash grid over axis-aligned boxes.
//
// Two consumers use it as a construction substrate:
//
//   - FLAT's indexing phase derives the neighborhood information (§2.1 of the
//     paper: "what spatial elements neighbor each other") by rasterizing
//     element boxes into cells and emitting candidate pairs per cell; and
//   - the PBSM join baseline partitions both datasets into the same grid and
//     joins cell-by-cell.
//
// Boxes spanning multiple cells are registered in each (replication), so
// consumers that must report a pair at most once deduplicate with the
// standard reference-point method, provided here as ReportCell.
package grid

import (
	"fmt"
	"math"

	"neurospatial/internal/geom"
)

// Grid is a uniform grid of nx × ny × nz cells covering a bounding box, each
// cell holding the indices of the boxes overlapping it.
type Grid struct {
	bounds     geom.AABB
	nx, ny, nz int
	cell       geom.Vec // cell extent per axis
	cells      [][]int32
	boxes      []geom.AABB
}

// New builds a grid over bounds with the given resolution per axis and
// registers every box. Boxes are identified by their index in the slice.
// Boxes outside the bounds are clamped onto the boundary cells so nothing is
// lost.
func New(bounds geom.AABB, nx, ny, nz int, boxes []geom.AABB) (*Grid, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("grid: resolution %dx%dx%d not positive", nx, ny, nz)
	}
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("grid: empty bounds %v", bounds)
	}
	size := bounds.Size()
	g := &Grid{
		bounds: bounds,
		nx:     nx, ny: ny, nz: nz,
		cell: geom.V(
			size.X/float64(nx),
			size.Y/float64(ny),
			size.Z/float64(nz),
		),
		cells: make([][]int32, nx*ny*nz),
		boxes: boxes,
	}
	for i := range boxes {
		g.forEachCell(boxes[i], func(c int) {
			g.cells[c] = append(g.cells[c], int32(i))
		})
	}
	return g, nil
}

// NewAuto chooses a cubic-ish resolution targeting the given mean number of
// boxes per cell and builds the grid. perCell values <= 0 default to 8.
func NewAuto(bounds geom.AABB, boxes []geom.AABB, perCell float64) (*Grid, error) {
	if perCell <= 0 {
		perCell = 8
	}
	n := float64(len(boxes))
	cells := math.Max(1, n/perCell)
	// Round the per-axis resolution: truncating Cbrt systematically
	// undershoots the cell target (999 target cells would build 9³ = 729,
	// 27% coarser than asked).
	k := int(math.Max(1, math.Round(math.Cbrt(cells))))
	return New(bounds, k, k, k, boxes)
}

// DropBoxes releases the registered boxes, for a caller that keeps the
// geometry itself and wants the cell directory only: the cell arithmetic,
// CellBoxes and ForEachInRange keep working; Query, ReportCell and
// ForEachCandidatePair, which refine against the boxes, must not be called
// afterwards.
func (g *Grid) DropBoxes() { g.boxes = nil }

// Bounds returns the grid's covered region.
func (g *Grid) Bounds() geom.AABB { return g.bounds }

// Dims returns the grid resolution.
func (g *Grid) Dims() (nx, ny, nz int) { return g.nx, g.ny, g.nz }

// NumCells returns the total cell count.
func (g *Grid) NumCells() int { return len(g.cells) }

// CellBoxes returns the indices registered in cell c. The slice is shared and
// must not be modified.
func (g *Grid) CellBoxes(c int) []int32 { return g.cells[c] }

// CellBounds returns the spatial extent of cell c.
func (g *Grid) CellBounds(c int) geom.AABB {
	ix := c % g.nx
	iy := (c / g.nx) % g.ny
	iz := c / (g.nx * g.ny)
	min := geom.Vec{
		X: g.bounds.Min.X + float64(ix)*g.cell.X,
		Y: g.bounds.Min.Y + float64(iy)*g.cell.Y,
		Z: g.bounds.Min.Z + float64(iz)*g.cell.Z,
	}
	return geom.AABB{Min: min, Max: min.Add(g.cell)}
}

// CellIndex maps integer cell coordinates to the flat index.
func (g *Grid) CellIndex(ix, iy, iz int) int {
	return ix + g.nx*(iy+g.ny*iz)
}

// CellRange returns the clamped integer coordinate range covered by box b
// (finite corners): every box registered from a point inside b is in a cell of
// that range.
func (g *Grid) CellRange(b geom.AABB) (x0, x1, y0, y1, z0, z1 int) {
	x0 = g.coord(b.Min.X, g.bounds.Min.X, g.cell.X, g.nx)
	x1 = g.coord(b.Max.X, g.bounds.Min.X, g.cell.X, g.nx)
	y0 = g.coord(b.Min.Y, g.bounds.Min.Y, g.cell.Y, g.ny)
	y1 = g.coord(b.Max.Y, g.bounds.Min.Y, g.cell.Y, g.ny)
	z0 = g.coord(b.Min.Z, g.bounds.Min.Z, g.cell.Z, g.nz)
	z1 = g.coord(b.Max.Z, g.bounds.Min.Z, g.cell.Z, g.nz)
	return
}

func (g *Grid) coord(v, min, cell float64, n int) int {
	if cell == 0 {
		return 0
	}
	i := int(math.Floor((v - min) / cell))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// forEachCell invokes fn for every cell overlapping box b.
func (g *Grid) forEachCell(b geom.AABB, fn func(cell int)) {
	x0, x1, y0, y1, z0, z1 := g.CellRange(b)
	for iz := z0; iz <= z1; iz++ {
		for iy := y0; iy <= y1; iy++ {
			for ix := x0; ix <= x1; ix++ {
				fn(g.CellIndex(ix, iy, iz))
			}
		}
	}
}

// ForEachInRange invokes fn for every cell overlapping b, in ascending
// cell-index order, with the box indices registered in the cell (shared
// slice, must not be modified). The engine's grid index uses it as its
// candidate generator; unlike Query it does not test the boxes themselves,
// so callers refine (and deduplicate, when boxes are replicated across
// cells) as they see fit.
func (g *Grid) ForEachInRange(b geom.AABB, fn func(cell int, ids []int32)) {
	g.forEachCell(b, func(c int) { fn(c, g.cells[c]) })
}

// Query reports the indices of all boxes whose grid cells overlap q and whose
// boxes intersect q. Each index is reported once.
func (g *Grid) Query(q geom.AABB, visit func(int32)) {
	seen := make(map[int32]struct{})
	g.forEachCell(q, func(c int) {
		for _, i := range g.cells[c] {
			if _, dup := seen[i]; dup {
				continue
			}
			if g.boxes[i].Intersects(q) {
				seen[i] = struct{}{}
				visit(i)
			}
		}
	})
}

// ReportCell reports whether cell c is the canonical reporting cell for an
// intersecting pair of boxes: the cell containing the reference point (the
// minimum corner of the intersection). The reference point lies inside both
// boxes, so both are registered in its cell, and it is unique per pair —
// the standard PBSM trick for emitting each replicated pair exactly once
// without a result hash table.
func (g *Grid) ReportCell(c int, a, b geom.AABB) bool {
	ref := a.Intersect(b)
	if ref.IsEmpty() {
		return false
	}
	p := g.bounds.Clamp(ref.Min)
	ix := g.coord(p.X, g.bounds.Min.X, g.cell.X, g.nx)
	iy := g.coord(p.Y, g.bounds.Min.Y, g.cell.Y, g.ny)
	iz := g.coord(p.Z, g.bounds.Min.Z, g.cell.Z, g.nz)
	return g.CellIndex(ix, iy, iz) == c
}

// ForEachCandidatePair enumerates every unordered pair (i, j), i < j, of
// *registered* boxes that intersect, reporting each pair exactly once (the
// reference-point method suppresses replicated reports). Callers that need
// pairs within a distance eps must register boxes pre-expanded by eps/2 and
// refine the reported candidates exactly; FLAT's neighborhood derivation does
// exactly that.
func (g *Grid) ForEachCandidatePair(visit func(i, j int32)) {
	for c := range g.cells {
		ids := g.cells[c]
		for ai := 0; ai < len(ids); ai++ {
			for bi := ai + 1; bi < len(ids); bi++ {
				i, j := ids[ai], ids[bi]
				if i > j {
					i, j = j, i
				}
				if !g.boxes[i].Intersects(g.boxes[j]) {
					continue
				}
				if !g.ReportCell(c, g.boxes[i], g.boxes[j]) {
					continue
				}
				visit(i, j)
			}
		}
	}
}
