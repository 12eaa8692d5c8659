package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third
// quartile of xs by the method of Python's statistics.quantiles(xs, n=4)
// (its default "exclusive" method), so a spread computed here matches
// one computed in Python from the same samples. A single sample is its
// own three quartiles; no samples give NaN.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return xs[0], xs[0], xs[0]
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - 4*j
		if delta == 0 {
			q[i-1] = d[j-1] // also keeps +Inf samples from turning into NaN
			continue
		}
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer samples is noise.
const minBeyond = 10

// tailPermille are the percentiles tail chooses from, in tenths of a
// percent (integers keep the sample-count test exact), highest first.
var tailPermille = []int{999, 990, 950, 900, 500}

// tail returns the highest percentile in tailPermille that has at least
// minBeyond samples above it, with its nearest-rank value, so p99 is
// reported only from 1000 samples on. ok is false below 20 samples,
// where not even the median has ten samples beyond it.
func tail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	for _, pm := range tailPermille {
		if n*(1000-pm) < minBeyond*1000 {
			continue
		}
		d := append([]float64(nil), xs...)
		sort.Float64s(d)
		rank := (pm*n + 999) / 1000
		return float64(pm) / 10, d[max(rank, 1)-1], true
	}
	return 0, 0, false
}

// latencies collects per-operation times. A failed operation counts as
// +Inf: it missed every latency limit, so it lands in the tail rather
// than vanishing from it.
type latencies []float64

func (l *latencies) add(seconds float64) { *l = append(*l, seconds) }
func (l *latencies) fail()               { *l = append(*l, math.Inf(1)) }

// finite maps a non-finite statistic (a median over mostly failed
// operations) onto the largest float64, which JSON can carry and which
// reads as worse than any measured value.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}
