// Package sim is the experiment harness shared by cmd/experiments and
// the benchmark suite: repeated seeded trials, summary statistics,
// log-log slope fitting (for the paper's polynomial scaling claims), and
// aligned-column table rendering.
package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds order statistics over repeated trials.
type Summary struct {
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	N      int
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, x := range sorted {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// FitLogLogSlope fits y = c * x^slope by least squares in log-log space.
// It is how the harness turns measured round counts into scaling
// exponents comparable to the paper's bounds (e.g. slope -2 vs b for
// Theorem 2.3, slope -1 for Theorem 2.1).
func FitLogLogSlope(xs, ys []float64) (slope float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, fmt.Errorf("sim: need >= 2 paired points, got %d and %d", len(xs), len(ys))
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, fmt.Errorf("sim: log-log fit requires positive values (point %d: %g, %g)", i, xs[i], ys[i])
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	n := float64(len(xs))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("sim: degenerate x values")
	}
	return (n*sxy - sx*sy) / den, nil
}

// Table is an aligned-column result table with a caption, rendered the
// same way by the CLI and the benchmark suite (see DESIGN.md for the
// experiment index).
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
	// Notes are free-form lines printed after the table (fitted slopes,
	// pass/fail verdicts).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Caption)
	sb.WriteByte('\n')
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("  note: ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// MarshalTable returns the table as a JSON-ready structure (caption,
// header, rows, notes) for machine consumption of experiment results.
func (t *Table) MarshalTable() map[string]any {
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	notes := t.Notes
	if notes == nil {
		notes = []string{}
	}
	return map[string]any{
		"caption": t.Caption,
		"header":  t.Header,
		"rows":    rows,
		"notes":   notes,
	}
}

// F formats a float compactly for table cells.
func F(x float64) string {
	switch {
	case x == math.Trunc(x) && math.Abs(x) < 1e9:
		return fmt.Sprintf("%.0f", x)
	case math.Abs(x) >= 100:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// I formats an int for table cells.
func I(x int) string { return fmt.Sprintf("%d", x) }
