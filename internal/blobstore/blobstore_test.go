package blobstore

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), ".blob")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// commitSized commits an entry of n bytes and backdates its mtime so
// eviction order is deterministic regardless of test speed.
func commitSized(t *testing.T, s *Store, name string, n int, age time.Duration) {
	t.Helper()
	err := s.Commit(name, func(w io.Writer) error {
		_, err := w.Write(bytes.Repeat([]byte{'x'}, n))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	when := time.Now().Add(-age)
	if err := os.Chtimes(s.Path(name), when, when); err != nil {
		t.Fatal(err)
	}
}

func TestPruneUnderCapIsNoop(t *testing.T) {
	s := newStore(t)
	commitSized(t, s, "a", 50, time.Hour)
	commitSized(t, s, "b", 50, time.Hour)
	removed, freed, err := s.Prune(1 << 20)
	if err != nil || removed != 0 || freed != 0 {
		t.Fatalf("Prune under cap = (%d, %d, %v), want noop", removed, freed, err)
	}
}

func TestPruneZeroEmptiesStore(t *testing.T) {
	s := newStore(t)
	commitSized(t, s, "a", 10, time.Hour)
	commitSized(t, s, "b", 10, time.Hour)
	if removed, freed, err := s.Prune(0); err != nil || removed != 2 || freed != 20 {
		t.Fatalf("Prune(0) = (%d, %d, %v), want 2 entries of 20 bytes", removed, freed, err)
	}
	if ents, err := os.ReadDir(s.dir); err != nil || len(ents) != 0 {
		t.Errorf("store after Prune(0) holds %d files (err %v)", len(ents), err)
	}
}

// TestPruneSweepsStaleTemps: an orphaned temp file from a crashed
// writer is removed once clearly stale; a fresh one (possibly an
// in-flight Commit from another process) is left alone, and neither
// counts toward the size Prune caps.
func TestPruneSweepsStaleTemps(t *testing.T) {
	s := newStore(t)
	commitSized(t, s, "a", 10, time.Hour)
	stale := filepath.Join(s.dir, "crashed.tmp")
	fresh := filepath.Join(s.dir, "inflight.tmp")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	// The entry alone fills the cap: only the stale temp file goes.
	if removed, _, err := s.Prune(10); err != nil || removed != 1 {
		t.Fatalf("Prune(10) = (%d, %v), want only the stale temp file removed", removed, err)
	}
	if _, err := os.Stat(s.Path("a")); err != nil {
		t.Errorf("entry evicted, so temp files counted toward the cap: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived prune")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file was swept; may race an in-flight Commit")
	}
}
