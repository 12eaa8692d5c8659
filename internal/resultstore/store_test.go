package resultstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// The store is the engine's in-memory source of decoded values.
var _ sweep.DecodedCache = (*Store)(nil)

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

// decimal is a sweep.Codec of ints as decimal text.
type decimal struct{}

func (decimal) Encode(v interface{}) ([]byte, error) { return []byte(strconv.Itoa(v.(int))), nil }

func (decimal) Decode(data []byte) (interface{}, error) { return strconv.Atoi(string(data)) }

// TestKeptValuesBounded: warm runs over more keys than keptMax keep at
// most keptMax decoded values, and every key is still answered, from
// memory or from its entry, without running a unit.
func TestKeptValuesBounded(t *testing.T) {
	s := newStore(t)
	n := keptMax + 64
	units := make([]sweep.Unit, n)
	for i := range units {
		key := fmt.Sprintf("k%d", i)
		if err := s.Put(key, []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		units[i] = sweep.Unit{Name: key, Key: key, Codec: decimal{},
			Run: func() (interface{}, error) { return nil, errors.New("ran a cached unit") }}
	}
	job := sweep.Job{Name: "bound", Units: units,
		Assemble: func(parts []interface{}) (interface{}, error) { return parts, nil }}
	for run := 0; run < 3; run++ {
		reg := obs.NewRegistry()
		e := &sweep.Engine{Workers: 2, Cache: s, Obs: reg}
		var v interface{}
		if err := e.Run(context.Background(), []sweep.Job{job}, func(r sweep.JobResult) error {
			v = r.Value
			return nil
		}); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i, p := range v.([]interface{}) {
			if p.(int) != i {
				t.Fatalf("run %d: unit %d = %v", run, i, p)
			}
		}
		if hits, misses := reg.Counter("resultcache", "hits").Value(), reg.Counter("resultcache", "misses").Value(); hits != int64(n) || misses != 0 {
			t.Errorf("run %d: %d hits, %d misses; want %d and 0", run, hits, misses, n)
		}
		s.mu.Lock()
		kept, listed := len(s.kept), s.lru.Len()
		s.mu.Unlock()
		if kept != keptMax || listed != kept {
			t.Errorf("run %d: %d values kept (%d listed), want %d", run, kept, listed, keptMax)
		}
	}
}

// TestKeepEvictsLeastRecentlyUsed: past keptMax, Keep drops the value
// used longest ago; a Decoded lookup counts as a use.
func TestKeepEvictsLeastRecentlyUsed(t *testing.T) {
	s := newStore(t)
	for i := 0; i < keptMax; i++ {
		s.Keep(fmt.Sprintf("k%d", i), i)
	}
	if v, ok := s.Decoded("k0"); !ok || v.(int) != 0 {
		t.Fatalf("Decoded(k0) = %v, %v", v, ok)
	}
	s.Keep("new", -1)
	if _, ok := s.Decoded("k1"); ok {
		t.Error("k1, the least recently used, survived")
	}
	for _, key := range []string{"k0", "k2", "new"} {
		if _, ok := s.Decoded(key); !ok {
			t.Errorf("%s was evicted", key)
		}
	}
	if len(s.kept) != keptMax {
		t.Errorf("%d values kept, want %d", len(s.kept), keptMax)
	}
}

// FuzzStoreGet writes arbitrary bytes as an entry's file. Get must not
// panic, must hit only when the magic and the SHA-256 of the payload
// hold, and must then return exactly the payload.
func FuzzStoreGet(f *testing.F) {
	s, err := NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put("seed", []byte("unit result bytes")); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(s.Path("seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, n := range []int{len(valid) - 1, len(magic) + sha256.Size, len(magic) + 3, len(magic), 3} {
		f.Add(valid[:n])
	}
	for _, i := range []int{len(valid) - 1, len(magic) + sha256.Size - 1} {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x01 // in the payload, then in the digest
		f.Add(flipped)
	}
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(s.Path("k"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get("k")
		head := len(magic) + sha256.Size
		valid := len(raw) >= head && string(raw[:len(magic)]) == magic
		if valid {
			sum := sha256.Sum256(raw[head:])
			valid = bytes.Equal(raw[len(magic):head], sum[:])
		}
		switch {
		case ok != valid:
			t.Fatalf("Get hit = %v on an entry whose framing holds = %v", ok, valid)
		case ok && !bytes.Equal(got, raw[head:]):
			t.Fatalf("Get returned %d bytes, not the %d-byte payload", len(got), len(raw)-head)
		}
	})
}
