// Package report renders simulation results as aligned text tables and
// ASCII histograms — the textual equivalents of the paper's figures.
package report

import (
	"fmt"
	"io"
	"strings"

	"asdsim/internal/stats"
)

// Table accumulates rows of string cells and prints them column-aligned.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(headers ...string) *Table { return &Table{headers: headers} }

// AddRow appends a row; cells beyond the header count are kept and get
// their own width.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// Fprint writes the table to w.
func (t *Table) Fprint(w io.Writer) {
	width := make([]int, 0)
	grow := func(cells []string) {
		for i, c := range cells {
			if i >= len(width) {
				width = append(width, 0)
			}
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	grow(t.headers)
	for _, r := range t.rows {
		grow(r)
	}
	line := func(cells []string) {
		parts := make([]string, len(width))
		for i := range width {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i == 0 {
				parts[i] = fmt.Sprintf("%-*s", width[i], c)
			} else {
				parts[i] = fmt.Sprintf("%*s", width[i], c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	sep := make([]string, len(width))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// Histogram renders h as horizontal percentage bars, one per bucket,
// labelled 1..N with the final bucket marked "N+" — the textual form of
// the paper's SLH figures.
func Histogram(w io.Writer, title string, h *stats.Histogram, barWidth int) {
	if barWidth <= 0 {
		barWidth = 50
	}
	fmt.Fprintf(w, "%s (n=%d)\n", title, h.Total())
	fr := h.Fractions()
	for i, f := range fr {
		label := fmt.Sprintf("%2d", i+1)
		if i == len(fr)-1 {
			label = fmt.Sprintf("%d+", i+1)
		}
		n := int(f*float64(barWidth) + 0.5)
		fmt.Fprintf(w, "  %3s |%-*s %5.1f%%\n", label, barWidth, strings.Repeat("#", n), 100*f)
	}
}

// Progress renders a one-line, in-place progress meter for batch runs:
// a bar, done/total counts, failures and throughput. Callers re-invoke
// it as counts change and print a final newline themselves.
func Progress(w io.Writer, done, failed, total int, runsPerSec float64) {
	const width = 30
	filled := 0
	if total > 0 {
		filled = done * width / total
	}
	fmt.Fprintf(w, "\r[%-*s] %d/%d", width, strings.Repeat("=", filled), done, total)
	if failed > 0 {
		fmt.Fprintf(w, " (%d failed)", failed)
	}
	if runsPerSec > 0 {
		fmt.Fprintf(w, " %.1f runs/s", runsPerSec)
	}
	fmt.Fprint(w, "   ")
}

// Pct formats a ratio as a signed percentage with one decimal.
func Pct(x float64) string { return fmt.Sprintf("%+.1f%%", x) }

// Frac formats a 0..1 fraction as an unsigned percentage.
func Frac(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
