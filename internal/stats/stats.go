// Package stats provides the small statistical toolkit used by the
// simulators: streaming means and variances, confidence intervals,
// histograms, and event-rate counters.
//
// Every simulator in this repository is a Monte-Carlo or discrete-event
// model, so results are reported with their sampling error wherever that
// error is meaningful.
package stats

import "math"

// Running accumulates a stream of float64 samples using Welford's
// algorithm, giving numerically stable mean and variance without storing
// the samples. The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one sample.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples recorded.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean, or 0 with no samples.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest sample, or 0 with no samples.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample, or 0 with no samples.
func (r *Running) Max() float64 { return r.max }

// Variance returns the unbiased sample variance (n-1 denominator), or 0
// with fewer than two samples. The result is clamped at 0: Merge's
// pairwise combination can round the second moment a hair below zero
// when shards have near-identical means, and propagating that negative
// value would turn StdDev into NaN.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	v := r.m2 / float64(r.n-1)
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation, or 0 with fewer than
// two samples.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean, or 0 with fewer than
// two samples (a single sample carries no spread information, and the
// n==0 case would otherwise divide by sqrt(0)).
func (r *Running) StdErr() float64 {
	if r.n < 2 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// CI95 returns the half-width of a ~95% confidence interval for the mean
// using the normal approximation (adequate for the sample counts used by
// the Monte-Carlo runners, which are in the thousands).
func (r *Running) CI95() float64 { return 1.96 * r.StdErr() }

// Counter is a monotonically increasing event counter paired with a
// population counter, reporting a rate. It is the basic unit of
// cache-miss accounting.
type Counter struct {
	Events int64 // e.g. misses
	Total  int64 // e.g. accesses
}

// Rate returns Events/Total, or 0 when Total is 0.
func (c Counter) Rate() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Events) / float64(c.Total)
}

// Percent returns the rate as a percentage.
func (c Counter) Percent() float64 { return 100 * c.Rate() }

// Add merges another counter into this one.
func (c *Counter) Add(o Counter) {
	c.Events += o.Events
	c.Total += o.Total
}

// Histogram is a fixed-bucket histogram over float64 values in
// [Lo, Hi); values outside the range are clamped to the first or last
// bucket. It is used for latency and occupancy distributions.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int64
	n       int64
}

// NewHistogram creates a histogram with the given bucket count over
// [lo, hi). It panics if buckets < 1 or hi <= lo, which are programming
// errors, not data errors.
func NewHistogram(lo, hi float64, buckets int) *Histogram {
	if buckets < 1 {
		panic("stats: histogram needs at least one bucket")
	}
	if hi <= lo {
		panic("stats: histogram range is empty")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int64, buckets)}
}

// Add records one observation. Values outside [Lo, Hi) are clamped:
// x < Lo lands in the first bucket and x >= Hi in the last, so every
// observation is counted and N always equals the number of Adds.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.Buckets)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
	h.n++
}

// N returns the total number of observations.
func (h *Histogram) N() int64 { return h.n }

// Quantile returns an approximation of the q-quantile assuming
// observations are uniform within a bucket. The result is always inside
// [Lo, Hi]: q is clamped to [0, 1], an empty histogram reports Lo,
// q == 0 reports the lower edge of the first non-empty bucket, and
// q == 1 reports the upper edge of the last non-empty bucket even when
// trailing buckets are empty. Because Add clamps out-of-range
// observations into the edge buckets, quantiles of clamped data are
// still bounded by [Lo, Hi], not by the raw observed values.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return h.Lo
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	var cum float64
	width := (h.Hi - h.Lo) / float64(len(h.Buckets))
	for i, b := range h.Buckets {
		next := cum + float64(b)
		if next >= target && b > 0 {
			frac := (target - cum) / float64(b)
			return h.Lo + (float64(i)+frac)*width
		}
		cum = next
	}
	return h.Hi
}

// Mean returns the histogram's approximate mean (bucket midpoints).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	width := (h.Hi - h.Lo) / float64(len(h.Buckets))
	var sum float64
	for i, b := range h.Buckets {
		mid := h.Lo + (float64(i)+0.5)*width
		sum += mid * float64(b)
	}
	return sum / float64(h.n)
}

// GeoMean returns the geometric mean of positive values; zero or
// negative values are ignored. SPEC-style ratios are combined this way.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
