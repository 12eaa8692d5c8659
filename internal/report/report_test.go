package report

import (
	"io"
	"strings"
	"testing"
)

// rendered returns what r's Render writes.
func rendered(r interface{ Render(io.Writer) }) string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

func TestTableRender(t *testing.T) {
	tab := NewTable("My Table", "name", "value")
	tab.Row("alpha", 1.5)
	tab.Row("beta", "text")
	tab.Note("a footnote")
	out := rendered(tab)
	for _, want := range []string{"My Table", "name", "value", "alpha", "1.5", "beta", "text", "note: a footnote"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableColumnAlignment(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.Row("longer-cell", "x")
	out := rendered(tab)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header and row must place column b at the same offset.
	head := lines[0]
	row := lines[len(lines)-1]
	if strings.Index(head, "b") != strings.Index(row, "x") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestFormatCell(t *testing.T) {
	cases := map[interface{}]string{
		3.0:        "3.0",
		3.14159:    "3.142",
		42:         "42",
		"s":        "s",
		float32(2): "2.0",
	}
	for in, want := range cases {
		if got := formatCell(in); got != want {
			t.Errorf("formatCell(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSeriesRender(t *testing.T) {
	s := NewSeries("Speedup", "procs", "cycles")
	for _, p := range []float64{1, 2, 4, 8} {
		s.Add("reference", p, 100/p)
		s.Add("integrated", p, 80/p)
	}
	out := rendered(s)
	for _, want := range []string{"Speedup", "procs", "reference", "integrated", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("series plot missing %q:\n%s", want, out)
		}
	}
	// The higher series' marker must appear on an earlier (higher) row
	// than the lower one at x=1.
	lines := strings.Split(out, "\n")
	rowOf := func(mark string) int {
		for i, l := range lines {
			if strings.Contains(l, mark) && strings.Contains(l, "|") {
				return i
			}
		}
		return -1
	}
	if rowOf("*") >= rowOf("o") && rowOf("o") >= 0 {
		t.Errorf("series ordering wrong:\n%s", out)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty", "x", "y")
	if !strings.Contains(rendered(s), "no data") {
		t.Error("empty series must say so")
	}
}

func TestSeriesFlatLine(t *testing.T) {
	s := NewSeries("flat", "x", "y")
	s.Add("a", 1, 5)
	s.Add("a", 2, 5)
	if out := rendered(s); !strings.Contains(out, "*") {
		t.Errorf("flat series lost its points:\n%s", out)
	}
}

func TestSeriesOverlapMarker(t *testing.T) {
	s := NewSeries("overlap", "x", "y")
	s.Add("a", 1, 5)
	s.Add("b", 1, 5)
	if out := rendered(s); !strings.Contains(out, "&") {
		t.Errorf("overlapping points not marked:\n%s", out)
	}
}
