package main

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// replayNames are the experiments whose measurements flow through the
// trace source: the cache-miss figures and their dependent CPI table,
// the Synopsys estimate, and the Mattson curves.
var replayNames = []string{"fig7", "fig8", "table3", "table1", "mattson"}

func renderWith(t *testing.T, opts experiments.Options) []byte {
	t.Helper()
	return runJobs(t, replayNames, opts, runner.Config{Workers: 2})
}

// TestReplayMatchesLive is the pipeline's end-to-end golden check:
// rendered experiment output is byte-identical across the three source
// modes — live generation, a recording pass (-record), and a replay
// pass over the cache the recording left behind (-trace-dir).
func TestReplayMatchesLive(t *testing.T) {
	opts := quickOpts()
	live := renderWith(t, opts)
	if len(live) == 0 {
		t.Fatal("live run produced no output")
	}

	store, err := tracestore.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recOpts := opts
	recOpts.TraceSource = workload.Traced{Store: store, Seed: opts.Seed, Force: true}
	rec := renderWith(t, recOpts)
	if !bytes.Equal(live, rec) {
		t.Errorf("-record output differs from live:\n%s", firstDiff(live, rec))
	}

	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	cached := len(entries)
	if cached == 0 {
		t.Fatal("recording pass left no cache entries")
	}

	repOpts := opts
	repOpts.TraceSource = workload.Traced{Store: store, Seed: opts.Seed}
	rep := renderWith(t, repOpts)
	if !bytes.Equal(live, rep) {
		t.Errorf("-trace-dir output differs from live:\n%s", firstDiff(live, rep))
	}
	// The replay pass served every stream from the cache: no new files.
	entries, err = os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != cached {
		t.Errorf("replay pass changed the cache: %d entries, was %d", len(entries), cached)
	}

	// Damage three entries: a flipped bit, a truncation and a version 1
	// header. A fresh store (the recording store's memo would skip the
	// verify) must re-record each one and render live's bytes.
	damage := []func([]byte) []byte{
		func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		func(b []byte) []byte { return b[:len(b)-5] },
		func(b []byte) []byte { b[7] = '1'; return b },
	}
	var damaged []tracestore.Key
	for _, w := range workload.All() {
		k := tracestore.Key{Workload: w.Name, Budget: opts.Budget, Seed: opts.Seed}
		data, err := os.ReadFile(store.Path(k))
		if err != nil {
			continue
		}
		if err := os.WriteFile(store.Path(k), damage[len(damaged)](data), 0o644); err != nil {
			t.Fatal(err)
		}
		if damaged = append(damaged, k); len(damaged) == len(damage) {
			break
		}
	}
	if len(damaged) != len(damage) {
		t.Fatalf("found %d recorded entries to damage, want %d", len(damaged), len(damage))
	}
	healing, err := tracestore.NewStore(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	healOpts := opts
	healOpts.TraceSource = workload.Traced{Store: healing, Seed: opts.Seed}
	if healed := renderWith(t, healOpts); !bytes.Equal(live, healed) {
		t.Errorf("output over damaged entries differs from live:\n%s", firstDiff(live, healed))
	}
	check, err := tracestore.NewStore(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range damaged {
		if _, err := check.ReplayTo(k, trace.Discard); err != nil {
			t.Errorf("damaged entry %s was not healed: %v", k.Workload, err)
		}
	}
	if entries, err = os.ReadDir(store.Dir()); err != nil {
		t.Fatal(err)
	}
	if len(entries) != cached {
		t.Errorf("healing pass left %d entries, want %d", len(entries), cached)
	}
}

// TestRecordAll drives the `iramsim -record <dir>` (no experiments)
// mode: every registered workload ends up with exactly one cache entry,
// and the progress log names each.
func TestRecordAll(t *testing.T) {
	opts := quickOpts()
	store, err := tracestore.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.TraceSource = workload.Traced{Store: store, Seed: opts.Seed, Force: true}
	var progress bytes.Buffer
	if err := recordAll(opts, &progress); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	all := workload.All()
	if len(entries) != len(all) {
		t.Errorf("record-all left %d cache entries for %d workloads", len(entries), len(all))
	}
	for _, w := range all {
		if !bytes.Contains(progress.Bytes(), []byte(w.Name)) {
			t.Errorf("progress log does not mention %s", w.Name)
		}
	}
}

// TestResolveTraceDir pins the flag-combination contract.
func TestResolveTraceDir(t *testing.T) {
	cases := []struct {
		name    string
		c       cliConfig
		want    string
		wantErr bool
	}{
		{"none", cliConfig{}, "", false},
		{"trace-dir", cliConfig{traceDir: "a"}, "a", false},
		{"record", cliConfig{record: "a"}, "a", false},
		{"agreeing", cliConfig{record: "a", traceDir: "a"}, "a", false},
		{"record-vs-trace-dir", cliConfig{record: "a", traceDir: "b"}, "", true},
	}
	for _, tc := range cases {
		got, err := resolveTraceDir(tc.c)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("%s: dir %q err %v, want %q wantErr=%v", tc.name, got, err, tc.want, tc.wantErr)
		}
	}
}
