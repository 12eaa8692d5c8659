package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, since spreads are checked there.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, m, q3  float64
		wantMedian float64
	}{
		{[]float64{4}, 4, 4, 4, 4},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1.5},
		{[]float64{1, 2, 3}, 1, 2, 3, 2},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75, 2.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5},
		{[]float64{3.5, 1.25, 9, 2, 7, 4.5, 6}, 2, 4.5, 7, 4.5},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
		if got := median(tc.xs); got != tc.wantMedian {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.wantMedian)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

// TestTailNeedsTenSamplesBeyond checks the reported percentile is the
// highest one with at least ten samples above it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		ok     bool
		pct, v float64
	}{
		{0, false, 0, 0},
		{19, false, 0, 0},
		{20, true, 50, 10},
		{100, true, 90, 90},
		{999, true, 95, 950},
		{1000, true, 99, 990},
		{10000, true, 99.9, 9990},
	} {
		pct, v, ok := tail(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || v != tc.v {
			t.Errorf("tail(n=%d) = %v %v %v, want %v %v %v", tc.n, pct, v, ok, tc.pct, tc.v, tc.ok)
		}
	}
}

// TestFailuresCountAsInfinite checks a failed operation lands in the
// tail as +Inf and pushes the median, instead of vanishing.
func TestFailuresCountAsInfinite(t *testing.T) {
	var l latencies
	for i := 0; i < 95; i++ {
		l.add(0.01)
	}
	for i := 0; i < 5; i++ {
		l.fail()
	}
	if pct, v, _ := tail(l); pct != 90 || v != 0.01 {
		t.Errorf("tail with 5%% failures = p%v %v, want p90 0.01", pct, v)
	}
	for i := 0; i < 10; i++ {
		l.fail()
	}
	if _, v, _ := tail(l); !math.IsInf(v, 1) {
		t.Errorf("tail with 15 of 110 failed = %v, want +Inf", v)
	}
	var all latencies
	all.fail()
	all.fail()
	if m := median(all); !math.IsInf(m, 1) || finite(m) != math.MaxFloat64 {
		t.Errorf("median of failures = %v (finite %v), want +Inf reported as MaxFloat64", m, finite(m))
	}
}
