package resultstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	s := newStore(t)
	key := "fig7_126.gcc-deadbeef"
	payload := []byte("the result bytes")

	if _, ok := s.Get(key); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("Get = %q, want %q", got, payload)
	}

	// Overwrite wins.
	next := []byte("newer result")
	if err := s.Put(key, next); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(key); !bytes.Equal(got, next) {
		t.Errorf("Get after overwrite = %q, want %q", got, next)
	}
}

func TestStoreEmptyDir(t *testing.T) {
	if _, err := NewStore(""); err == nil {
		t.Fatal("NewStore(\"\") succeeded")
	}
}

// TestStoreConcurrentPut mirrors tracestore's TestStoreConcurrentRecord:
// many writers race on one key (run under -race), exactly one complete
// file wins, no temp files leak, and a read returns the payload intact.
func TestStoreConcurrentPut(t *testing.T) {
	s := newStore(t)
	const key = "race-key-0123456789abcdef"
	payload := bytes.Repeat([]byte("unit result "), 1024)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Put(key, payload)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leaked temp file %s", e.Name())
		}
	}
	if len(files) != 1 {
		t.Fatalf("want exactly one cache file, got %v", files)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("Get after concurrent Put missed")
	}
	if !bytes.Equal(got, payload) {
		t.Error("Get after concurrent Put returned different bytes")
	}
}

// TestStoreCorruption: truncated, bit-flipped, magic-less, and
// header-short entries all read back as a miss, never as wrong bytes.
func TestStoreCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5, 0x5a, 0x01}, 512)
	corrupt := map[string]func([]byte) []byte{
		"truncated":  func(raw []byte) []byte { return raw[:len(raw)/2] },
		"bit-flip":   func(raw []byte) []byte { raw[len(raw)-7] ^= 0x40; return raw },
		"bad-magic":  func(raw []byte) []byte { raw[0] ^= 0xff; return raw },
		"header-cut": func(raw []byte) []byte { return raw[:10] },
		"empty":      func([]byte) []byte { return nil },
	}
	for name, mangle := range corrupt {
		t.Run(name, func(t *testing.T) {
			s := newStore(t)
			key := "victim-" + name
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(s.Path(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.Path(key), mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry (%s) hit with %d bytes; want miss", name, len(got))
			}
			// Recompute-and-overwrite heals the entry.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Error("Put after corruption did not restore the entry")
			}
		})
	}
}

// TestAcquireSingleFlight: two holders of the same key never overlap;
// holders of different keys do not block each other.
func TestAcquireSingleFlight(t *testing.T) {
	s := newStore(t)
	var holders atomic.Int32
	var maxHolders atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release := s.Acquire("one-key")
			n := holders.Add(1)
			for {
				m := maxHolders.Load()
				if n <= m || maxHolders.CompareAndSwap(m, n) {
					break
				}
			}
			holders.Add(-1)
			release()
		}()
	}
	wg.Wait()
	if maxHolders.Load() != 1 {
		t.Errorf("max concurrent holders of one key = %d, want 1", maxHolders.Load())
	}

	// Distinct keys are independent: acquiring b while a is held must
	// not block (a deadlock here fails the test by timeout).
	ra := s.Acquire("a")
	rb := s.Acquire("b")
	rb()
	ra()
}

func TestPathSanitizesKeys(t *testing.T) {
	s := newStore(t)
	key := "designspace/gspn/b=16 col=512/126.gcc-abc123"
	if err := s.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	base := s.Path(key)
	for _, r := range base[len(s.Dir())+1:] {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			t.Fatalf("Path(%q) contains unsafe rune %q", key, r)
		}
	}
	if _, ok := s.Get(key); !ok {
		t.Error("round trip through sanitized path failed")
	}

	long := strings.Repeat("x", 400) + "-digestdigestdigest"
	if err := s.Put(long, []byte("y")); err != nil {
		t.Fatalf("long key: %v", err)
	}
	if _, ok := s.Get(long); !ok {
		t.Error("long key round trip failed")
	}
}

// TestStoreReadsCommittedEntry pins on-disk compatibility:
// testdata/compat holds an entry written by an earlier build of this
// store. A copy of it must hit with the exact payload, under the same
// file name.
func TestStoreReadsCommittedEntry(t *testing.T) {
	const (
		key  = "fig7/126.gcc-2b33a9570d42f8af1c84dbe8b8c9bb50664f9b19ca8f7ee100548b9945a52f5d"
		file = "fig7_126.gcc-2b33a9570d42f8af1c84dbe8b8c9bb50664f9b19ca8f7ee100548b9945a52f5d.res"
	)
	raw, err := os.ReadFile(filepath.Join("testdata", "compat", file))
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(t)
	if err := os.WriteFile(filepath.Join(s.Dir(), file), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := filepath.Base(s.Path(key)); got != file {
		t.Errorf("Path(%q) = %s, want %s", key, got, file)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("committed entry read as a miss")
	}
	if want := "unit result bytes written by an earlier build"; string(got) != want {
		t.Errorf("Get = %q, want %q", got, want)
	}
}

// putSized writes an entry of n payload bytes and backdates its mtime
// so eviction order is deterministic regardless of test speed.
func putSized(t *testing.T, s *Store, key string, n int, age time.Duration) {
	t.Helper()
	if err := s.Put(key, bytes.Repeat([]byte{'x'}, n)); err != nil {
		t.Fatal(err)
	}
	when := time.Now().Add(-age)
	if err := os.Chtimes(s.Path(key), when, when); err != nil {
		t.Fatal(err)
	}
}

// TestPruneEvictsOldestFirst drives the embedded blobstore Prune through
// the result format: it must count the ".res" entries Put writes and
// evict the oldest, so Get misses on exactly that key.
func TestPruneEvictsOldestFirst(t *testing.T) {
	s := newStore(t)
	putSized(t, s, "old", 100, 3*time.Hour)
	putSized(t, s, "mid", 100, 2*time.Hour)
	putSized(t, s, "new", 100, time.Hour)
	var total int64
	for _, key := range []string{"old", "mid", "new"} {
		info, err := os.Stat(s.Path(key))
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}

	// Cap just under the total: exactly one (the oldest) must go.
	removed, freed, err := s.Prune(total - 1)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != total/3 {
		t.Fatalf("Prune = (%d, %d), want 1 entry of %d bytes", removed, freed, total/3)
	}
	if _, ok := s.Get("old"); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, key := range []string{"mid", "new"} {
		if _, ok := s.Get(key); !ok {
			t.Errorf("entry %q evicted out of order", key)
		}
	}
}
