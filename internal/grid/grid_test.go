package grid

import (
	"math/rand"
	"reflect"
	"testing"

	"neurospatial/internal/geom"
)

func randBoxes(rng *rand.Rand, n int, extent, maxHalf float64) []geom.AABB {
	out := make([]geom.AABB, n)
	for i := range out {
		c := geom.V(rng.Float64()*extent, rng.Float64()*extent, rng.Float64()*extent)
		out[i] = geom.BoxAround(c, rng.Float64()*maxHalf+maxHalf/10)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	b := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	if _, err := New(b, 0, 1, 1, nil); err == nil {
		t.Error("zero resolution accepted")
	}
	if _, err := New(geom.EmptyAABB(), 2, 2, 2, nil); err == nil {
		t.Error("empty bounds accepted")
	}
}

func TestCellGeometry(t *testing.T) {
	b := geom.Box(geom.V(0, 0, 0), geom.V(4, 2, 2))
	g, err := New(b, 4, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 16 {
		t.Fatalf("cells = %d", g.NumCells())
	}
	nx, ny, nz := g.Dims()
	if nx != 4 || ny != 2 || nz != 2 {
		t.Fatalf("dims = %d %d %d", nx, ny, nz)
	}
	// Cells tile the bounds exactly.
	var vol float64
	for c := 0; c < g.NumCells(); c++ {
		cb := g.CellBounds(c)
		vol += cb.Volume()
		if !b.ContainsBox(cb) {
			t.Fatalf("cell %d escapes bounds: %v", c, cb)
		}
	}
	if !almostEq(vol, b.Volume(), 1e-9) {
		t.Errorf("cells cover %v of %v", vol, b.Volume())
	}
	// First and last cell positions.
	if got := g.CellBounds(0); got.Min != b.Min {
		t.Errorf("cell 0 = %v", got)
	}
	if got := g.CellBounds(15); got.Max != b.Max {
		t.Errorf("cell 15 = %v", got)
	}
}

func almostEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestQueryEqualsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	boxes := randBoxes(rng, 2000, 50, 1)
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(50, 50, 50))
	g, err := New(bounds, 12, 12, 12, boxes)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		q := geom.BoxAround(geom.V(rng.Float64()*50, rng.Float64()*50, rng.Float64()*50),
			rng.Float64()*6+0.5)
		got := make(map[int32]bool)
		g.Query(q, func(i int32) {
			if got[i] {
				t.Fatal("duplicate report")
			}
			got[i] = true
		})
		for i, b := range boxes {
			want := b.Intersects(q)
			if want != got[int32(i)] {
				t.Fatalf("box %d: got %v want %v", i, got[int32(i)], want)
			}
		}
	}
}

func TestQueryFindsOutOfBoundsBoxes(t *testing.T) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 10))
	// A box entirely outside the grid bounds is clamped to boundary cells.
	boxes := []geom.AABB{geom.BoxAround(geom.V(15, 5, 5), 1)}
	g, err := New(bounds, 5, 5, 5, boxes)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	g.Query(geom.BoxAround(geom.V(12, 5, 5), 4), func(i int32) { found = true })
	if !found {
		t.Error("out-of-bounds box lost")
	}
}

func TestNewAutoResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	boxes := randBoxes(rng, 4096, 40, 0.5)
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(40, 40, 40))
	g, err := NewAuto(bounds, boxes, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 4096/8 = 512 cells target, cube root = 8.
	nx, ny, nz := g.Dims()
	if nx != 8 || ny != 8 || nz != 8 {
		t.Errorf("auto dims = %d %d %d", nx, ny, nz)
	}
	// Default perCell.
	g2, err := NewAuto(bounds, boxes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumCells() == 0 {
		t.Error("auto grid with default perCell has no cells")
	}
}

// TestNewAutoRoundsResolution: the per-axis resolution must round the cube
// root of the cell target, not truncate it — flooring built a grid up to 27%
// coarser than asked (999 target cells -> 9³ = 729).
func TestNewAutoRoundsResolution(t *testing.T) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(40, 40, 40))
	cases := []struct {
		boxes   int
		perCell float64
		wantDim int
	}{
		{7992, 8, 10}, // 999 target cells: cbrt 9.9966 rounds up to 10
		{5832, 8, 9},  // 729 exactly: cbrt 9
		{6000, 8, 9},  // 750: cbrt 9.086 rounds down to 9
		{1, 8, 1},     // tiny inputs clamp at 1
		{30, 8, 2},    // 3.75 cells: cbrt 1.55 rounds to 2
	}
	rng := rand.New(rand.NewSource(71))
	for _, tc := range cases {
		g, err := NewAuto(bounds, randBoxes(rng, tc.boxes, 40, 0.2), tc.perCell)
		if err != nil {
			t.Fatal(err)
		}
		nx, ny, nz := g.Dims()
		if nx != tc.wantDim || ny != tc.wantDim || nz != tc.wantDim {
			t.Errorf("NewAuto(%d boxes, perCell %.0f) dims = %d×%d×%d, want %d per axis",
				tc.boxes, tc.perCell, nx, ny, nz, tc.wantDim)
		}
	}
}

// TestDropBoxesKeepsTheDirectory: a grid used as a cell directory only keeps
// its cells, and what walks them, after the boxes are released.
func TestDropBoxesKeepsTheDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(50, 50, 50))
	g, err := NewAuto(bounds, randBoxes(rng, 400, 50, 1), 8)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.BoxAround(geom.V(25, 25, 25), 10)
	collect := func() (cells []int, ids [][]int32) {
		g.ForEachInRange(q, func(c int, in []int32) { cells, ids = append(cells, c), append(ids, in) })
		return
	}
	cellsBefore, idsBefore := collect()
	g.DropBoxes()
	cellsAfter, idsAfter := collect()
	if !reflect.DeepEqual(cellsAfter, cellsBefore) || !reflect.DeepEqual(idsAfter, idsBefore) {
		t.Fatal("ForEachInRange changed after DropBoxes")
	}
	if g.boxes != nil {
		t.Fatal("boxes still referenced")
	}
}
