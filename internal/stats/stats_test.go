package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if r.Mean() != 5 {
		t.Errorf("mean = %v, want 5", r.Mean())
	}
	// Known sample stddev of this classic data set: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(r.StdDev()-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", r.StdDev(), want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.CI95() != 0 {
		t.Error("empty accumulator not zero")
	}
	r.Add(3)
	if r.Mean() != 3 || r.Variance() != 0 {
		t.Error("single sample stats wrong")
	}
}

// TestRunningSmallN: every derived statistic is finite and zero on
// empty and single-sample accumulators, so a metrics dump of an idle
// accumulator always JSON-encodes (encoding/json rejects NaN).
func TestRunningSmallN(t *testing.T) {
	single := Running{}
	single.Add(42)
	cases := []struct {
		name string
		r    Running
		n    int64
		mean float64
		min  float64
		max  float64
	}{
		{name: "n=0", r: Running{}, n: 0, mean: 0, min: 0, max: 0},
		{name: "n=1", r: single, n: 1, mean: 42, min: 42, max: 42},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.r
			if r.N() != tc.n {
				t.Errorf("N = %d, want %d", r.N(), tc.n)
			}
			if r.Mean() != tc.mean || r.Min() != tc.min || r.Max() != tc.max {
				t.Errorf("mean/min/max = %v/%v/%v, want %v/%v/%v",
					r.Mean(), r.Min(), r.Max(), tc.mean, tc.min, tc.max)
			}
			for name, got := range map[string]float64{
				"Variance": r.Variance(),
				"StdDev":   r.StdDev(),
				"StdErr":   r.StdErr(),
				"CI95":     r.CI95(),
			} {
				if got != 0 {
					t.Errorf("%s = %v, want 0", name, got)
				}
				if math.IsNaN(got) || math.IsInf(got, 0) {
					t.Errorf("%s = %v, must be finite", name, got)
				}
			}
		})
	}
}

// TestVarianceClampsNegativeM2: Merge's pairwise combination can round
// the second moment slightly negative when shards have near-identical
// means; Variance must clamp rather than let StdDev go NaN.
func TestVarianceClampsNegativeM2(t *testing.T) {
	r := Running{n: 3, mean: 1, m2: -1e-18}
	if v := r.Variance(); v != 0 {
		t.Errorf("Variance with negative m2 = %v, want 0", v)
	}
	if sd := r.StdDev(); sd != 0 || math.IsNaN(sd) {
		t.Errorf("StdDev with negative m2 = %v, want 0", sd)
	}
	if se := r.StdErr(); math.IsNaN(se) || se != 0 {
		t.Errorf("StdErr with negative m2 = %v, want 0", se)
	}
}

// TestRunningMatchesDirect (property): Welford result equals the
// two-pass computation.
func TestRunningMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var r Running
		var sum float64
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			r.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(n)
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		variance := m2 / float64(n-1)
		return math.Abs(r.Mean()-mean) < 1e-9 && math.Abs(r.Variance()-variance) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	c := Counter{Events: 3, Total: 12}
	if c.Rate() != 0.25 || c.Percent() != 25 {
		t.Errorf("rate/percent = %v/%v", c.Rate(), c.Percent())
	}
	var zero Counter
	if zero.Rate() != 0 {
		t.Error("zero counter rate must be 0")
	}
	c.Add(Counter{Events: 1, Total: 4})
	if c.Events != 4 || c.Total != 16 {
		t.Errorf("after Add: %+v", c)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if h.N() != 100 {
		t.Errorf("N = %d", h.N())
	}
	if q := h.Quantile(0.5); math.Abs(q-50) > 11 {
		t.Errorf("median = %v, want ~50", q)
	}
	if m := h.Mean(); math.Abs(m-50) > 1 {
		t.Errorf("mean = %v, want ~50", m)
	}
	// Clamping.
	h.Add(-5)
	h.Add(1e9)
	if h.Buckets[0] < 1 || h.Buckets[9] < 1 {
		t.Error("out-of-range values not clamped")
	}
}

// TestHistogramQuantileBoundaries pins the clamping contract documented
// on Quantile: results stay inside [Lo, Hi] for q at and beyond the
// boundaries, with trailing empty buckets, and with clamped
// out-of-range observations.
func TestHistogramQuantileBoundaries(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		h := NewHistogram(10, 20, 5)
		for _, q := range []float64{-1, 0, 0.5, 1, 2} {
			if got := h.Quantile(q); got != 10 {
				t.Errorf("Quantile(%v) on empty = %v, want Lo=10", q, got)
			}
		}
	})
	t.Run("q0-and-q1-trailing-empty", func(t *testing.T) {
		// Observations only in bucket 1 of [0,100)/10 buckets: buckets
		// 2..9 are empty tails.
		h := NewHistogram(0, 100, 10)
		for i := 0; i < 7; i++ {
			h.Add(15)
		}
		if got := h.Quantile(0); got != 10 {
			t.Errorf("Quantile(0) = %v, want lower edge 10", got)
		}
		if got := h.Quantile(1); got != 20 {
			t.Errorf("Quantile(1) = %v, want upper edge 20 (not Hi=100)", got)
		}
	})
	t.Run("q-clamped", func(t *testing.T) {
		h := NewHistogram(0, 100, 10)
		for i := 0; i < 100; i++ {
			h.Add(float64(i))
		}
		if got, want := h.Quantile(-0.5), h.Quantile(0); got != want {
			t.Errorf("Quantile(-0.5) = %v, want Quantile(0)=%v", got, want)
		}
		if got, want := h.Quantile(1.5), h.Quantile(1); got != want {
			t.Errorf("Quantile(1.5) = %v, want Quantile(1)=%v", got, want)
		}
		if got := h.Quantile(-0.5); got < 0 {
			t.Errorf("Quantile(-0.5) = %v, below Lo", got)
		}
	})
	t.Run("clamped-observations", func(t *testing.T) {
		h := NewHistogram(0, 100, 10)
		h.Add(-50) // clamps into first bucket
		h.Add(1e9) // clamps into last bucket
		lo, hi := h.Quantile(0), h.Quantile(1)
		if lo < 0 || hi > 100 {
			t.Errorf("quantiles of clamped data = [%v, %v], must stay in [0,100]", lo, hi)
		}
		if hi != 100 {
			t.Errorf("Quantile(1) with clamped max = %v, want upper edge 100", hi)
		}
	})
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 0, 5) },
		func() { NewHistogram(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := GeoMean([]float64{-1, 0}); g != 0 {
		t.Errorf("geomean of non-positives = %v, want 0", g)
	}
	if g := GeoMean([]float64{5, -1, 0}); g != 5 {
		t.Errorf("geomean skipping non-positives = %v, want 5", g)
	}
}
