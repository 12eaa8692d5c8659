// Package report renders the reproduction's tables and figures as
// fixed-width text. "Figures" (the paper's bar charts and line plots)
// are rendered as numeric series tables plus ASCII bars, which keeps
// the output diffable and dependency-free.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple fixed-width table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Row appends a row; values are formatted with %v, floats with 4
// significant digits.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a footnote printed under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func formatCell(c interface{}) string {
	switch v := c.(type) {
	case float64:
		if v == math.Trunc(v) && math.Abs(v) < 1e6 {
			return fmt.Sprintf("%.1f", v)
		}
		return fmt.Sprintf("%.4g", v)
	case float32:
		return formatCell(float64(v))
	default:
		return fmt.Sprintf("%v", c)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var total int
	for _, wd := range widths {
		total += wd + 2
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", max(len(t.Title), total)))
	}
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%-*s", widths[i]+2, c)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s", widths[i]+2, cell)
			}
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}
