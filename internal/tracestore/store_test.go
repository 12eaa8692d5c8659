package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// testStream writes n deterministic references (mixed kinds, strided
// addresses) into sink.
func testStream(n int) func(trace.Sink) error {
	return func(sink trace.Sink) error {
		for i := 0; i < n; i++ {
			sink.Ref(trace.Ref{Kind: trace.Ifetch, Addr: 0x1000 + uint64(i)*4, Size: 4})
			if i%3 == 0 {
				sink.Ref(trace.Ref{Kind: trace.Load, Addr: 0x90000 + uint64(i)*32, Size: 8})
			}
			if i%7 == 0 {
				sink.Ref(trace.Ref{Kind: trace.Store, Addr: 0xA0000 + uint64(i)*8, Size: 4})
			}
		}
		return nil
	}
}

// collect gathers a replayed stream for comparison.
type collect struct{ refs []trace.Ref }

func (c *collect) Ref(r trace.Ref) { c.refs = append(c.refs, r) }

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRecordReplay(t *testing.T) {
	s := newStore(t)
	k := Key{Workload: "099.go", Budget: 1000, Seed: 1}

	var live collect
	rec, err := s.Record(k, testStream(1000), &live)
	if err != nil {
		t.Fatal(err)
	}
	var rep collect
	counts, err := s.ReplayTo(k, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if counts != rec {
		t.Errorf("replay counts %+v != recorded %+v", counts, rec)
	}
	if len(rep.refs) != len(live.refs) {
		t.Fatalf("replayed %d refs, recorded %d", len(rep.refs), len(live.refs))
	}
	for i := range live.refs {
		if rep.refs[i] != live.refs[i] {
			t.Fatalf("ref %d: replayed %+v, recorded %+v", i, rep.refs[i], live.refs[i])
		}
	}
}

func TestStoreMiss(t *testing.T) {
	s := newStore(t)
	_, err := s.ReplayTo(Key{Workload: "absent", Budget: 1}, trace.Discard)
	if !errors.Is(err, ErrMiss) {
		t.Errorf("missing entry: err %v, want ErrMiss", err)
	}
}

// TestStoreKeyComponents verifies each key component (and the format
// version in particular) addresses a distinct entry: a bumped version
// misses rather than replaying a stale stream.
func TestStoreKeyComponents(t *testing.T) {
	s := newStore(t)
	base := Key{Workload: "w", Budget: 100, Seed: 1}
	if _, err := s.Record(base, testStream(100), trace.Discard); err != nil {
		t.Fatal(err)
	}
	for name, k := range map[string]Key{
		"workload": {Workload: "w2", Budget: 100, Seed: 1},
		"budget":   {Workload: "w", Budget: 101, Seed: 1},
		"seed":     {Workload: "w", Budget: 100, Seed: 2},
		"version":  {Workload: "w", Budget: 100, Seed: 1, Version: trace.FormatVersion + 1},
	} {
		if _, err := s.ReplayTo(k, trace.Discard); !errors.Is(err, ErrMiss) {
			t.Errorf("%s changed: err %v, want ErrMiss", name, err)
		}
	}
	if _, err := s.ReplayTo(base, trace.Discard); err != nil {
		t.Errorf("unchanged key: %v", err)
	}
	// Recording an entry for a format this writer cannot produce is
	// refused rather than silently written as the current version.
	legacy := Key{Workload: "w", Budget: 100, Seed: 1, Version: trace.FormatVersion + 1}
	if _, err := s.Record(legacy, testStream(1), trace.Discard); err == nil {
		t.Error("recording a foreign format version was accepted")
	}
}

// TestStoreConcurrentRecord races recorders on one key: every reader
// afterwards sees exactly one complete file, and no temp files leak.
// Run under -race (the CI race job covers this package).
func TestStoreConcurrentRecord(t *testing.T) {
	s := newStore(t)
	k := Key{Workload: "race", Budget: 5000, Seed: 1}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Record(k, testStream(5000), trace.Discard)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("recorder %d: %v", i, err)
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
	want, err := s.Record(k, testStream(5000), trace.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReplayTo(k, trace.Discard)
	if err != nil {
		t.Fatalf("replay after race: %v", err)
	}
	if got != want {
		t.Errorf("replay counts %+v, want %+v", got, want)
	}
}

// TestStoreCorruptionRerecords covers the distrust contract: a
// truncated or bit-flipped entry is detected before any reference
// reaches the sink, and Fetch re-records it instead of trusting it.
func TestStoreCorruptionRerecords(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-5] },
		"bitflip":   func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"empty":     func(b []byte) []byte { return nil },
		// A version 1 header in a version 2 entry's place.
		"stale version": func(b []byte) []byte { b[7] = '1'; return b },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := newStore(t)
			k := Key{Workload: "c", Budget: 2000, Seed: 1}
			want, err := s.Record(k, testStream(2000), trace.Discard)
			if err != nil {
				t.Fatal(err)
			}
			path := s.Path(k)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			// A fresh store has no memoised verification for the path.
			s2, err := NewStore(s.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s2.ReplayTo(k, trace.Discard); !errors.Is(err, ErrMiss) {
				t.Fatalf("corrupt entry: err %v, want ErrMiss", err)
			}
			var sink collect
			counts, hit, err := s2.Fetch(k, testStream(2000), &sink)
			if err != nil {
				t.Fatalf("Fetch over corrupt entry: %v", err)
			}
			if hit {
				t.Error("corrupt entry reported as cache hit")
			}
			if counts != want {
				t.Errorf("re-recorded counts %+v, want %+v", counts, want)
			}
			if int64(len(sink.refs)) != want.Total() {
				t.Errorf("sink saw %d refs during re-record, want %d", len(sink.refs), want.Total())
			}
			// The re-recorded entry is valid again.
			if got, err := s2.ReplayTo(k, trace.Discard); err != nil || got != want {
				t.Errorf("replay after re-record: counts %+v err %v", got, err)
			}
		})
	}
}

func TestStoreFetchHitAndMiss(t *testing.T) {
	s := newStore(t)
	k := Key{Workload: "f", Budget: 300, Seed: 1}
	gen := testStream(300)
	counts1, hit, err := s.Fetch(k, gen, trace.Discard)
	if err != nil || hit {
		t.Fatalf("first fetch: hit=%v err=%v, want miss", hit, err)
	}
	counts2, hit, err := s.Fetch(k, gen, trace.Discard)
	if err != nil || !hit {
		t.Fatalf("second fetch: hit=%v err=%v, want hit", hit, err)
	}
	if counts1 != counts2 {
		t.Errorf("fetch counts diverge: %+v vs %+v", counts1, counts2)
	}
}

// TestStorePathShape pins the human-readable cache layout documented in
// EXPERIMENTS.md.
func TestStorePathShape(t *testing.T) {
	s := newStore(t)
	p := filepath.Base(s.Path(Key{Workload: "101.tomcatv", Budget: 2_000_000, Seed: 1}))
	if !strings.HasPrefix(p, "101.tomcatv-b2000000-s1-v2-") || !strings.HasSuffix(p, ".trc") {
		t.Errorf("cache filename %q does not follow <name>-b<budget>-s<seed>-v<version>-<hash>.trc", p)
	}
	odd := filepath.Base(s.Path(Key{Workload: "a/b c", Budget: 1}))
	if strings.ContainsAny(odd, "/ ") {
		t.Errorf("unsafe filename %q", odd)
	}
}

// TestStoreReadsCommittedEntry pins on-disk compatibility in both
// directions: testdata/compat holds testStream(64) recorded by an
// earlier build of this store. A copy of it must replay reference for
// reference, under the same file name, and recording the same stream
// today must write the same bytes.
func TestStoreReadsCommittedEntry(t *testing.T) {
	const file = "compat-b64-s1-v2-46185a41c709.trc"
	k := Key{Workload: "compat", Budget: 64, Seed: 1}
	raw, err := os.ReadFile(filepath.Join("testdata", "compat", file))
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(t)
	if err := os.WriteFile(filepath.Join(s.Dir(), file), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := filepath.Base(s.Path(k)); got != file {
		t.Errorf("Path(%+v) = %s, want %s", k, got, file)
	}
	var rep collect
	if _, err := s.ReplayTo(k, &rep); err != nil {
		t.Fatalf("committed entry: %v", err)
	}
	var want collect
	if err := testStream(64)(&want); err != nil {
		t.Fatal(err)
	}
	if len(rep.refs) != len(want.refs) {
		t.Fatalf("replayed %d refs, want %d", len(rep.refs), len(want.refs))
	}
	for i := range want.refs {
		if rep.refs[i] != want.refs[i] {
			t.Fatalf("ref %d: replayed %+v, want %+v", i, rep.refs[i], want.refs[i])
		}
	}

	fresh := newStore(t)
	if _, err := fresh.Record(k, testStream(64), trace.Discard); err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(fresh.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, raw) {
		t.Errorf("recording testStream(64) wrote %d bytes that differ from the committed %d-byte entry", len(rec), len(raw))
	}
}

// TestStoreGenError verifies a failing generator never installs an
// entry.
func TestStoreGenError(t *testing.T) {
	s := newStore(t)
	k := Key{Workload: "boom", Budget: 10}
	genErr := errors.New("vm exploded")
	_, err := s.Record(k, func(sink trace.Sink) error {
		sink.Ref(trace.Ref{Kind: trace.Ifetch, Addr: 4096, Size: 4})
		return genErr
	}, trace.Discard)
	if !errors.Is(err, genErr) {
		t.Fatalf("err %v, want the generator's", err)
	}
	if _, err := os.Stat(s.Path(k)); !os.IsNotExist(err) {
		t.Error("failed recording left a cache entry behind")
	}
	entries, _ := os.ReadDir(s.Dir())
	if len(entries) != 0 {
		t.Errorf("failed recording left files: %v", entries)
	}
}

// encodeStream returns testStream(n) as the Writer encodes it.
func encodeStream(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := testStream(n)(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// malformedEntry returns testStream(n)'s encoding with its end-of-trace
// record replaced by a record in address mode 14, which no format
// version defines, and a new end-of-trace record and CRC-32C written
// after it. trace.Check passes it and the decoder fails on it, after
// every earlier reference; the Writer never produces such a file.
func malformedEntry(t testing.TB, n int) []byte {
	t.Helper()
	const trailer = 1 + 8 + 4 // end-of-trace opcode, count, checksum
	b := encodeStream(t, n)
	b = append(b[:len(b)-trailer], 0x0e, 0xc0)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// TestStoreMalformedEntry covers the late failure: an entry whose
// checksum holds but whose records do not decode fails inside the one
// decode, after the sink has seen references. The error wraps
// trace.ErrBadTrace and is not ErrMiss, so Fetch surfaces it rather
// than re-recording into a sink that already holds references; the
// entry is removed, and the next run's Fetch re-records it.
func TestStoreMalformedEntry(t *testing.T) {
	s := newStore(t)
	k := Key{Workload: "m", Budget: 2000, Seed: 1}
	path := s.Path(k)
	if err := os.WriteFile(path, malformedEntry(t, 2000), 0o644); err != nil {
		t.Fatal(err)
	}
	var sink collect
	_, hit, err := s.Fetch(k, testStream(2000), &sink)
	if !errors.Is(err, trace.ErrBadTrace) || errors.Is(err, ErrMiss) || hit {
		t.Fatalf("Fetch over a malformed entry: hit=%v err %v, want an error wrapping trace.ErrBadTrace and not ErrMiss", hit, err)
	}
	if len(sink.refs) == 0 {
		t.Error("the sink saw no reference: the entry failed before the decode")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("malformed entry still on disk: %v", err)
	}

	var want trace.Counts
	if err := testStream(2000)(&want); err != nil {
		t.Fatal(err)
	}
	next, err := NewStore(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var again collect
	counts, hit, err := next.Fetch(k, testStream(2000), &again)
	if err != nil || hit || counts != want || int64(len(again.refs)) != want.Total() {
		t.Fatalf("next Fetch: hit=%v counts %+v (sink %d refs) err %v, want a re-record of %+v",
			hit, counts, len(again.refs), err, want)
	}
	if got, err := next.ReplayTo(k, trace.Discard); err != nil || got != want {
		t.Errorf("replay after re-record: counts %+v err %v", got, err)
	}
}

// FuzzStoreReplay writes arbitrary bytes as an entry, replays them
// through a fresh Store and decodes them directly with trace.NewReader
// and ReplayBatch. The replay contract: ErrMiss means the sink saw no
// reference and the direct decode fails; nil means the sink holds
// exactly the direct decode's references and counts; any other error
// means the direct decode fails too, the sink holds what it delivered
// before failing, and a corrupt entry is gone from the store.
func FuzzStoreReplay(f *testing.F) {
	valid := encodeStream(f, 300)
	f.Add(valid)
	// TestStoreCorruptionRerecords' corruptions of that entry.
	f.Add(valid[:len(valid)-5])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	stale := bytes.Clone(valid)
	stale[7] = '1'
	f.Add(stale)
	f.Add(malformedEntry(f, 300))

	dir := f.TempDir()
	k := Key{Workload: "fuzz", Budget: 1, Seed: 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.Path(k), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got collect
		counts, err := s.ReplayTo(k, &got)

		var want collect
		var wantCounts trace.Counts
		r, derr := trace.NewReader(bytes.NewReader(data))
		if derr == nil {
			_, derr = r.ReplayBatch(trace.Tee{&want, &wantCounts}, nil)
		}

		switch {
		case errors.Is(err, ErrMiss):
			if len(got.refs) != 0 {
				t.Fatalf("ErrMiss after the sink saw %d references", len(got.refs))
			}
			if derr == nil {
				t.Fatalf("ErrMiss (%v) on bytes that decode", err)
			}
			return
		case err == nil:
			if derr != nil {
				t.Fatalf("replay succeeded on bytes that do not decode: %v", derr)
			}
			if counts != wantCounts {
				t.Fatalf("replay counts %+v, direct decode %+v", counts, wantCounts)
			}
		default:
			if derr == nil {
				t.Fatalf("replay failed (%v) on bytes that decode", err)
			}
			if _, serr := os.Stat(s.Path(k)); errors.Is(err, trace.ErrBadTrace) && !os.IsNotExist(serr) {
				t.Fatalf("corrupt entry left on disk after %v", err)
			}
		}
		if len(got.refs) != len(want.refs) {
			t.Fatalf("sink saw %d references, direct decode %d", len(got.refs), len(want.refs))
		}
		for i := range want.refs {
			if got.refs[i] != want.refs[i] {
				t.Fatalf("ref %d: replayed %+v, decoded %+v", i, got.refs[i], want.refs[i])
			}
		}
	})
}
