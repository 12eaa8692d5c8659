package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
// The nested designspace GSPN units are keyed at assembly time and are
// not listed.
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
