// Package viz renders 2-D projections of circuits, queries and crawl orders
// as ASCII frames — the terminal substitute for the demo tool's interactive
// 3-D visualization (Figures 2, 4, 6 and 7 of the paper). The mechanisms the
// figures illustrate (query selection on the model, FLAT's crawl order
// coloring, synapse highlighting) survive the projection; only the eye candy
// is gone.
package viz

import (
	"fmt"
	"strings"

	"neurospatial/internal/geom"
)

// Canvas is a character raster onto which XY projections are painted.
// Later paints overwrite earlier ones, so callers draw background first.
type Canvas struct {
	w, h   int
	bounds geom.AABB
	cells  []byte
}

// NewCanvas creates a w×h canvas covering the XY extent of bounds.
func NewCanvas(w, h int, bounds geom.AABB) (*Canvas, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("viz: canvas size %dx%d not positive", w, h)
	}
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("viz: empty bounds")
	}
	c := &Canvas{w: w, h: h, bounds: bounds, cells: make([]byte, w*h)}
	for i := range c.cells {
		c.cells[i] = ' '
	}
	return c, nil
}

// Size returns the canvas dimensions.
func (c *Canvas) Size() (w, h int) { return c.w, c.h }

// cell maps a spatial point to raster coordinates; ok is false off-canvas.
func (c *Canvas) cell(p geom.Vec) (x, y int, ok bool) {
	size := c.bounds.Size()
	if size.X <= 0 || size.Y <= 0 {
		return 0, 0, false
	}
	fx := (p.X - c.bounds.Min.X) / size.X
	fy := (p.Y - c.bounds.Min.Y) / size.Y
	x = int(fx * float64(c.w))
	y = int((1 - fy) * float64(c.h)) // raster Y grows downward
	if x < 0 || x >= c.w || y < 0 || y >= c.h {
		return 0, 0, false
	}
	return x, y, true
}

// Plot paints one spatial point.
func (c *Canvas) Plot(p geom.Vec, ch byte) {
	if x, y, ok := c.cell(p); ok {
		c.cells[y*c.w+x] = ch
	}
}

// Line paints the XY projection of a 3-D segment by sampling it densely
// enough to leave no raster gaps.
func (c *Canvas) Line(a, b geom.Vec, ch byte) {
	steps := 2 * (c.w + c.h)
	for i := 0; i <= steps; i++ {
		c.Plot(a.Lerp(b, float64(i)/float64(steps)), ch)
	}
}

// Box paints the XY outline of a 3-D box.
func (c *Canvas) Box(b geom.AABB, ch byte) {
	corners := []geom.Vec{
		{X: b.Min.X, Y: b.Min.Y, Z: b.Min.Z},
		{X: b.Max.X, Y: b.Min.Y, Z: b.Min.Z},
		{X: b.Max.X, Y: b.Max.Y, Z: b.Min.Z},
		{X: b.Min.X, Y: b.Max.Y, Z: b.Min.Z},
	}
	for i := range corners {
		c.Line(corners[i], corners[(i+1)%4], ch)
	}
}

// FillBox paints the XY projection of a box's interior.
func (c *Canvas) FillBox(b geom.AABB, ch byte) {
	x0, y0, ok0 := c.cell(geom.V(b.Min.X, b.Max.Y, 0))
	x1, y1, ok1 := c.cell(geom.V(b.Max.X, b.Min.Y, 0))
	if !ok0 {
		x0, y0 = 0, 0
	}
	if !ok1 {
		x1, y1 = c.w-1, c.h-1
	}
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			// Only fill cells whose spatial position is inside the box's XY
			// extent (guards against the clamped corners overfilling).
			c.cells[y*c.w+x] = ch
		}
	}
}

// String renders the canvas with a border.
func (c *Canvas) String() string {
	var b strings.Builder
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", c.w))
	b.WriteString("+\n")
	for y := 0; y < c.h; y++ {
		b.WriteByte('|')
		b.Write(c.cells[y*c.w : (y+1)*c.w])
		b.WriteString("|\n")
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", c.w))
	b.WriteString("+\n")
	return b.String()
}

// CrawlGlyph returns the character visualizing the i-th page of a FLAT crawl
// (Figure 4 colors the result in retrieval order; here early pages get
// digits, later ones letters).
func CrawlGlyph(i int) byte {
	const glyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if i < 0 {
		return '?'
	}
	if i < len(glyphs) {
		return glyphs[i]
	}
	return '*'
}
