package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchPath = "../../BENCHMARK.json"

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"identical", base, base, false, 0.1, same},
		{"faster in every pair", base, scale(base, 0.8), false, 0.1, better},
		{"slower past the bound", base, scale(base, 1.2), false, 0.1, worse},
		{"slower within the bound", base, scale(base, 1.05), false, 0.1, same},
		{"throughput up", base, scale(base, 1.2), true, 0.1, better},
		{"throughput down past the bound", base, scale(base, 0.8), true, 0.1, worse},
		{"base spread wider than the bound", noisy, scale(noisy, 0.95), false, 0.1, unresolved},
		{"noisy base but every change run better", noisy, scale(base, 0.5), false, 0.1, better},
		{"unbounded layer metric slower in every pair", base, scale(base, 1.2), false, 0, worse},
		{"unbounded layer metric within the noise", base, scale(base, 1.001), false, 0, same},
		{"wins only 8 of 10 pairs", base, []float64{0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 1.1, 1.1}, false, 0.1, same},
	} {
		if got := verdict(tc.a, tc.b, tc.higherBetter, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareRecords runs compare over two synthetic record files and
// checks the rows, the verdicts and the exit status.
func TestCompareRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall, rss float64) string {
		var buf bytes.Buffer
		for i := 0; i < 10; i++ {
			jitter := 1 + 0.002*float64(i%3)
			o := outcome{Workload: "cachefigs-live", Seed: int64(i + 1), Metrics: map[string]metric{
				"wall_s":     {Value: wall * jitter, Unit: "s", N: 8},
				"max_rss_mb": {Value: rss * jitter, Unit: "MB", N: 8},
			}}
			b, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.jsonl", 1.0, 60)
	b := write("b.jsonl", 0.7, 90)

	var out bytes.Buffer
	err := cmdCompare([]string{"-bench", benchPath, a, b}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 end-to-end metric") {
		t.Fatalf("compare error = %v, want one regression (max_rss_mb)", err)
	}
	for _, want := range []string{"max_rss_mb", "worse", "wall_s", "better"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare report lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := cmdCompare([]string{"-bench", benchPath, a, a}, &out); err != nil {
		t.Errorf("compare of a set with itself: %v\n%s", err, out.String())
	}
}

// TestMetricListsMatchBenchmark keeps the metrics the harness prints in
// step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmark(t *testing.T) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		benchFile
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	names := func(ms []benchMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(f.EndToEnd); strings.Join(got, " ") != strings.Join(e2eMetrics, " ") {
		t.Errorf("BENCHMARK.json end_to_end = %v, harness prints %v", got, e2eMetrics)
	}
	if got := names(f.PerLayer); strings.Join(got, " ") != strings.Join(layerMetrics, " ") {
		t.Errorf("BENCHMARK.json per_layer = %v, harness prints %v", got, layerMetrics)
	}
	var ws []string
	for _, w := range f.Workloads {
		ws = append(ws, w.Name)
		if _, err := specByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(ws) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(ws), len(specs))
	}
}
