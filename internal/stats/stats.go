// Package stats provides the small reporting toolkit the experiment
// harnesses share: fixed-width tables rendered to plain text (the repository
// equivalent of the demo's live statistics panels) and numeric helpers for
// formatting counts, byte sizes and speedup factors consistently across
// every table the cmd drivers print.
package stats

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// Count formats an integer with thousands separators (1234567 -> "1,234,567").
// The sign is split off the formatted digits rather than by negating n, so
// math.MinInt64 (whose negation overflows) formats correctly.
func Count(n int64) string {
	s := fmt.Sprintf("%d", n)
	sign := ""
	if s[0] == '-' {
		sign, s = "-", s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	return sign + strings.Join(parts, ",")
}

// Bytes formats a byte count with a binary unit (4096 -> "4.0 KiB").
func Bytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// Speedup formats a ratio as a factor ("12.3x"); infinite or undefined
// ratios render as "-".
func Speedup(base, other time.Duration) string {
	if other <= 0 || base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(other))
}

// Ratio formats a fraction as a percentage ("87.5%"); a zero denominator
// renders as "-".
func Ratio(num, den int64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

// Running is an online accumulator of a scalar series: count, mean and
// variance in one pass (Welford's method). The engine's planner keeps one per
// index and metric — observed I/O cost per query, selectivity per unit query
// volume — and routes batches to the index with the lowest estimated cost.
type Running struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the observation count.
func (r *Running) N() int64 { return r.n }

// Mean returns the running mean (0 with no observations).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the running population variance (0 with fewer than two
// observations).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// Merge folds another accumulator into this one (Chan et al.'s parallel
// update), so per-worker accumulators can be combined deterministically.
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	r.mean += d * float64(o.n) / float64(n)
	r.m2 += o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	r.n = n
}

// Dur formats a duration rounded to a reporting-friendly precision.
func Dur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return d.String()
	}
}
