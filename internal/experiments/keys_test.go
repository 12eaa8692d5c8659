package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
)

// TestResultKeysGolden pins every keyed unit's result-cache key at
// Quick() fidelity against testdata/keys_quick.txt, one "job|unit|key"
// line per unit. TestResultKeysStableAndUnique only compares keys
// within one build; this test compares them across commits, so a
// refactor that silently re-keys a unit (a renamed unit, a reordered
// parameter, a different seed) fails here instead of leaving every
// warm result cache cold. To bless an intentional re-key:
// UPDATE_GOLDEN=1 go test -run TestResultKeysGolden ./internal/experiments
//
// The designspace GSPN units are a second wave that the job's assembly
// builds, so they are not listed; TestDesignspaceGSPNKeysGolden pins
// their keys.
func TestResultKeysGolden(t *testing.T) {
	o := Quick()
	var buf bytes.Buffer
	for _, name := range append(SweepNames(), "designspace") {
		j, err := JobFor(name, o, NewMeasurementSet(o))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range j.Units {
			if u.Key != "" {
				fmt.Fprintf(&buf, "%s|%s|%s\n", j.Name, u.Name, u.Key)
			}
		}
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "keys_quick.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("result-cache keys drifted from %s at line %d:\n-%s\n+%s", path, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("result-cache keys drifted from %s: want %d lines, got %d", path, len(wl), len(gl))
	}
}

// putRecorder is a ResultCache that misses every Get and records the
// key of every Put.
type putRecorder struct {
	mu   sync.Mutex
	keys []string
}

func (c *putRecorder) Get(string) ([]byte, bool) { return nil, false }

func (c *putRecorder) Put(key string, _ []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keys = append(c.keys, key)
	return nil
}

func (c *putRecorder) Acquire(string) func() { return func() {} }

// TestDesignspaceGSPNKeysGolden pins the keys of every entry a cold
// Quick() designspace run stores, sorted, against
// testdata/keys_designspace_quick.txt: the 4 family summaries and the
// 24 GSPN results. The GSPN units are built while the job assembles, so
// TestResultKeysGolden, which lists a job's units before it runs, never
// sees them. The recorder is also set as Options.ResultCache, which the
// designspace assembly read while it ran the GSPN stage on an engine of
// its own, so this test passed unchanged before that stage moved onto
// the run's engine. To bless an intentional re-key:
// UPDATE_GOLDEN=1 go test -run TestDesignspaceGSPNKeysGolden ./internal/experiments
func TestDesignspaceGSPNKeysGolden(t *testing.T) {
	o := Quick()
	rec := &putRecorder{}
	o.ResultCache = rec
	eng := &sweep.Engine{Workers: 2, Cache: rec}
	if err := eng.Run(context.Background(), []sweep.Job{DesignspaceJob(o, nil)}, nil); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rec.keys)
	got := strings.Join(rec.keys, "\n") + "\n"

	path := filepath.Join("testdata", "keys_designspace_quick.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d keys)", path, len(rec.keys))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("designspace result-cache keys drifted from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}
