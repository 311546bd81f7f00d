// Package stats provides the summary statistics (means, geomeans, safe
// ratios) and the text tables the experiment harness renders.
//
// Everything in this package is plain accounting — no simulation logic —
// so it can be unit-tested in isolation and reused by any component.
package stats

import (
	"math"
	"strings"
)

// SafeDiv returns num/den or def when den == 0.
func SafeDiv(num, den, def float64) float64 {
	if den == 0 {
		return def
	}
	return num / den
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Geomean returns the geometric mean of xs, or 0 for an empty slice.
// All inputs must be positive; non-positive entries make the result 0,
// mirroring how published geomeans become meaningless with zeros.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// GeomeanNonZero returns the geometric mean of the positive entries of
// xs, ignoring zeros and negatives (0 when none are positive). Published
// figures use this when a series legitimately contains zeros — e.g. a
// benchmark whose optimised run eliminates an event class entirely plots
// as 0 and cannot enter a geomean.
func GeomeanNonZero(xs []float64) float64 {
	var pos []float64
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	return Geomean(pos)
}

// Table renders aligned text tables for experiment output. Columns are
// sized to the widest cell; numeric alignment is the caller's concern
// (format values with consistent precision).
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row. Rows shorter than the header are padded with empty
// cells; longer rows extend the table width.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table with single-space-padded, pipe-separated
// columns and a dashed rule under the header.
func (t *Table) String() string {
	ncol := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+3*(ncol-1)))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
