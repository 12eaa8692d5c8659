package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series renders multi-series line plots as ASCII — the closest text
// form to the paper's Figures 11–17. Each series is a set of (x, y)
// points; the plot is a character grid with one marker per series and
// a legend. X values are treated as ordinal categories (the paper's
// processor counts and latencies are discrete sweeps).
type Series struct {
	Title  string
	XLabel string
	YLabel string
	Height int // plot rows (default 12)

	names  []string
	marks  []byte
	points map[string]map[float64]float64
	xs     map[float64]bool
}

// seriesMarks are assigned to series in order.
var seriesMarks = []byte{'*', 'o', '+', 'x', '#', '@'}

// NewSeries creates an empty plot.
func NewSeries(title, xlabel, ylabel string) *Series {
	return &Series{
		Title: title, XLabel: xlabel, YLabel: ylabel, Height: 12,
		points: map[string]map[float64]float64{},
		xs:     map[float64]bool{},
	}
}

// Add records one point of the named series.
func (s *Series) Add(name string, x, y float64) {
	if _, ok := s.points[name]; !ok {
		s.points[name] = map[float64]float64{}
		s.names = append(s.names, name)
		s.marks = append(s.marks, seriesMarks[(len(s.names)-1)%len(seriesMarks)])
	}
	s.points[name][x] = y
	s.xs[x] = true
}

// Render writes the plot to w.
func (s *Series) Render(w io.Writer) {
	if len(s.xs) == 0 {
		fmt.Fprintf(w, "%s\n(no data)\n\n", s.Title)
		return
	}
	xs := make([]float64, 0, len(s.xs))
	for x := range s.xs {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	// Y range over all points.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, pts := range s.points {
		for _, y := range pts {
			lo = math.Min(lo, y)
			hi = math.Max(hi, y)
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	// Pad the top a little so maxima are visible inside the frame.
	span := hi - lo
	hi += span * 0.05
	lo -= span * 0.05
	if lo < 0 && span > 0 {
		lo = math.Max(lo, 0)
	}

	height := s.Height
	if height < 4 {
		height = 4
	}
	const colWidth = 6
	width := len(xs) * colWidth

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, name := range s.names {
		for xi, x := range xs {
			y, ok := s.points[name][x]
			if !ok {
				continue
			}
			row := int((hi - y) / (hi - lo) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			col := xi*colWidth + colWidth/2
			if grid[row][col] == ' ' {
				grid[row][col] = s.marks[si]
			} else {
				grid[row][col] = '&' // overlapping series
			}
		}
	}

	if s.Title != "" {
		fmt.Fprintf(w, "%s\n%s\n", s.Title, strings.Repeat("-", len(s.Title)))
	}
	for i, row := range grid {
		yTick := hi - (hi-lo)*float64(i)/float64(height-1)
		fmt.Fprintf(w, "%10.3g |%s\n", yTick, string(row))
	}
	fmt.Fprintf(w, "%10s +%s\n", "", strings.Repeat("-", width))
	// X axis labels.
	var xrow strings.Builder
	for _, x := range xs {
		xrow.WriteString(fmt.Sprintf("%*g", colWidth, x))
	}
	fmt.Fprintf(w, "%10s  %s  (%s)\n", "", xrow.String(), s.XLabel)
	// Legend.
	for si, name := range s.names {
		fmt.Fprintf(w, "%10s  %c = %s\n", "", s.marks[si], name)
	}
	if s.YLabel != "" {
		fmt.Fprintf(w, "%10s  y: %s ('&' marks overlapping series)\n", "", s.YLabel)
	}
	fmt.Fprintln(w)
}
