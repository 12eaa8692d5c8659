package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeSpec shrinks a workload to test size: quick fidelity, a 50k
// instruction budget, two processor counts, a 16-point design space and
// no GSPN latency grids. The full-fidelity transcript no longer
// applies, so the reference run alone judges.
func smokeSpec(s spec) spec {
	s.req.Quick = true
	s.req.Budget = 50_000
	if len(s.req.Procs) > 0 {
		s.req.Procs = []int{1, 2}
	}
	if len(s.req.DSBanks) > 0 {
		s.req.DSBanks, s.req.DSColumns = []int{8, 16}, []int{512, 1024}
	}
	var names []string
	for _, n := range s.req.Experiments {
		if n != "fig11" && n != "fig12" && n != "banks" {
			names = append(names, n)
		}
	}
	s.req.Experiments = names
	s.golden = false
	return s
}

// TestSmoke runs every workload for one timed operation (serve-warm for
// 20 requests, each of which must reproduce the bytes of the iramsim
// run that filled the daemon's cache) through the real binaries, and
// the traced variant of the CLI and daemon paths, asserting that every
// operation is correct and every metric is reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the simulator binaries")
	}
	ctx := context.Background()
	e, err := newEnv(ctx, "../..")
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	for _, s := range specs {
		s := smokeSpec(s)
		t.Run(s.name, func(t *testing.T) {
			c := runConfig{spec: s, seed: 1, seconds: 60, maxOps: 1}
			if s.serve {
				c.maxOps = 20
			}
			o, err := measure(ctx, e, c)
			if err != nil {
				t.Fatal(err)
			}
			if o.Failed != 0 || o.Attempted != c.maxOps {
				t.Errorf("%d of %d operations failed (want %d attempted): %s", o.Failed, o.Attempted, c.maxOps, o.Note)
			}
			for _, name := range e2eMetrics {
				if m, ok := o.Metrics[name]; !ok || m.Value <= 0 || m.N < 1 {
					t.Errorf("metric %s = %+v, want a positive value with its sample count", name, m)
				}
			}
		})
	}

	for _, name := range []string{"cachefigs-replay", "serve-warm"} {
		t.Run("trace-"+name, func(t *testing.T) {
			s, err := specByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := runConfig{spec: smokeSpec(s), seed: 1, seconds: 60, maxOps: 1}
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			o, err := measureTraced(ctx, e, c, spans)
			if err != nil {
				t.Fatal(err)
			}
			if o.Failed != 0 {
				t.Errorf("%d of %d operations failed: %s", o.Failed, o.Attempted, o.Note)
			}
			for _, m := range layerMetrics {
				if _, ok := o.Metrics[m]; !ok {
					t.Errorf("per-layer metric %s missing", m)
				}
			}
			names := spanNames(t, spans)
			for _, want := range []string{"run", "resultstore.get"} {
				if names[want] == 0 {
					t.Errorf("span file has no %q span (have %v)", want, names)
				}
			}
			if name == "cachefigs-replay" && (names["tracestore.stream"] == 0 || names["workload.sink"] == 0) {
				t.Errorf("replay spans lack the stream and sink layers: %v", names)
			}
		})
	}
}

// spanNames counts the spans in a span file by name.
func spanNames(t *testing.T, path string) map[string]int {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start || s.ID == 0 {
			t.Errorf("malformed span %+v", s)
		}
		names[s.Name]++
	}
	return names
}
