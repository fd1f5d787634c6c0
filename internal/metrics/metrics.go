// Package metrics provides the small reporting substrate used by the
// experiment harness: aligned text tables and latency/accuracy
// aggregation helpers. It formats *end-of-run summaries* for humans.
//
// It is distinct from internal/obs, the runtime observability layer:
// obs records what happened *during* a run — frame-lifecycle trace
// spans on the virtual clock, control-plane instants, and a registry
// of counters/gauges/histograms — and exports it for machines
// (Perfetto trace JSON, CSV timelines, text dumps). Rule of thumb:
// a table a person reads at the end belongs here; an event or counter
// a tool consumes belongs in obs.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	// Lines carry no trailing spaces (the last cell is not padded), so a
	// rendered table can stand verbatim in an Example's Output block:
	// gofmt strips trailing spaces from comments.
	var b strings.Builder
	writeRow := func(cells []string) {
		var line strings.Builder
		for i, c := range cells {
			if i > 0 {
				line.WriteString("  ")
			}
			line.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					line.WriteByte(' ')
				}
			}
		}
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// Mean returns the arithmetic mean of xs (0 for empty input).
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

// Percentile returns the p-th percentile (0–100) of xs using
// nearest-rank on a sorted copy. It panics on empty input or p outside
// [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("metrics: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of range", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p == 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// FormatPct renders a [0,1] fraction as a percentage with two
// decimals, the format used in the paper's accuracy figures.
func FormatPct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
