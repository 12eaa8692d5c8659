// Package tracestore caches recorded reference streams on disk so a
// workload is executed once and replayed into every subsequent
// measurement: generate once, replay everywhere.
//
// What is checked when: before an entry's first replay in a Store,
// trace.Check reads the whole file once in 64 KiB blocks and checks
// its header, its end-of-trace record and its CRC-32C without
// decoding a record, so a truncated, bit-flipped, empty, stale or
// overlong entry is a miss before any reference reaches the sink.
// The replay then decodes the entry once, straight into the sink,
// and the decoder checks every record, the count and the CRC-32C
// again. A file that passes the checksum but does not decode (the
// Writer never commits one) fails in that decode, after the sink may
// have seen references: the entry is removed and the error is not a
// miss, so the run fails and the next one re-records it.
package tracestore

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/blobstore"
	"repro/internal/trace"
)

// Store is an on-disk cache of recorded reference streams: generate a
// workload's trace once, replay it into every subsequent measurement.
// Entries are content-addressed by Key — (workload name, instruction
// budget, seed, format version) — so a workload change that alters any
// key component, or a format bump, misses cleanly instead of replaying
// a stale stream.
//
// The embedded blobstore.Store owns the directory of ".trc" entries,
// their atomic commit and Prune; readers only ever observe absent
// or complete entries. This layer adds the trace encoding and its
// checks.
//
// Replays check the entry (header, end-of-trace record, CRC-32C; see
// the package comment) before any reference reaches the caller's sink,
// so a corrupt or truncated entry is re-recorded rather than trusted —
// and never pollutes a measurement. A passed check is memoised per
// path for the life of the Store.
type Store struct {
	*blobstore.Store

	mu       sync.Mutex
	verified map[string]bool
}

// ErrMiss reports that a store has no valid entry for a key.
var ErrMiss = errors.New("trace: store miss")

// NewStore opens (creating if needed) a trace cache directory.
func NewStore(dir string) (*Store, error) {
	b, err := blobstore.Open(dir, ".trc")
	if err != nil {
		return nil, fmt.Errorf("trace: store: %w", err)
	}
	return &Store{Store: b, verified: make(map[string]bool)}, nil
}

// Key identifies one recorded stream.
type Key struct {
	Workload string
	Budget   int64
	Seed     int64
}

// entryName names k's entry: every key component and the file format
// generation (trace.FormatVersion, so a format bump misses every older
// entry) plus a hash of the canonical key string, so humans can read
// the cache directory and collisions cannot alias two keys.
func entryName(k Key) string {
	const v = trace.FormatVersion
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%d", k.Workload, k.Budget, k.Seed, v)))
	return fmt.Sprintf("%s-b%d-s%d-v%d-%x", k.Workload, k.Budget, k.Seed, v, sum[:6])
}

// Path returns the file path an entry for k lives at (whether or not
// it exists).
func (s *Store) Path(k Key) string { return s.Store.Path(entryName(k)) }

// Record generates the stream for k via gen and atomically installs it
// in the cache, delivering every reference to sink as it is produced
// (pass trace.Discard to only populate the cache). It returns the tally of
// references recorded. An existing entry is replaced; a failing gen
// installs nothing and its error is returned as is.
func (s *Store) Record(k Key, gen func(trace.Sink) error, sink trace.Sink) (trace.Counts, error) {
	var counts trace.Counts
	err := s.Commit(entryName(k), func(f io.Writer) error {
		w, err := trace.NewWriter(f)
		if err != nil {
			return fmt.Errorf("trace: store: %w", err)
		}
		if err := gen(trace.Tee{w, &counts, sink}); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("trace: store: %w", err)
		}
		return nil
	})
	if err != nil {
		return counts, err
	}
	s.mu.Lock()
	s.verified[s.Path(k)] = true
	s.mu.Unlock()
	return counts, nil
}

// ReplayTo replays the cached entry for k into sink, decoding it once.
// A missing entry returns ErrMiss, and so does one that fails
// trace.Check, in both cases before sink sees a single reference. An
// entry whose checksum holds but whose records do not decode fails in
// the decode, possibly after sink has seen references: ReplayTo
// removes it and returns an error that wraps trace.ErrBadTrace and not
// ErrMiss.
func (s *Store) ReplayTo(k Key, sink trace.Sink) (trace.Counts, error) {
	path := s.Path(k)
	f, err := os.Open(path)
	if err != nil {
		return trace.Counts{}, fmt.Errorf("%w: %s", ErrMiss, k.Workload)
	}
	defer f.Close()

	// Check the whole file before the first reference reaches sink
	// (memoised per path). The check reads at explicit offsets, so the
	// decode below starts from the same descriptor's first byte. The
	// held descriptor pins the checked bytes even if a concurrent
	// recorder renames a new file over the path.
	s.mu.Lock()
	ok := s.verified[path]
	s.mu.Unlock()
	if !ok {
		fi, err := f.Stat()
		if err == nil {
			err = trace.Check(f, fi.Size())
		}
		if err != nil {
			return trace.Counts{}, fmt.Errorf("%w: invalid entry %s: %w", ErrMiss, filepath.Base(path), err)
		}
		s.mu.Lock()
		s.verified[path] = true
		s.mu.Unlock()
	}

	var counts trace.Counts
	r, err := trace.NewReader(f)
	if err == nil {
		_, err = r.Replay(trace.Tee{&counts, sink})
	}
	if err != nil {
		if errors.Is(err, trace.ErrBadTrace) {
			// The entry is bad, not the read: drop it so the next
			// run re-records it. A removal that fails leaves a file
			// the next decode rejects the same way.
			s.forget(path)
			os.Remove(path)
		}
		return counts, fmt.Errorf("trace: store: %s: %w", filepath.Base(path), err)
	}
	return counts, nil
}

// forget drops path's memoised check, so the next replay checks the
// file again.
func (s *Store) forget(path string) {
	s.mu.Lock()
	delete(s.verified, path)
	s.mu.Unlock()
}

// Fetch delivers the stream for k into sink: from the cache when a
// valid entry exists, otherwise by generating via gen while recording
// (one pass — gen's output is teed into both the cache file and sink).
// hit reports whether the cache served the stream.
func (s *Store) Fetch(k Key, gen func(trace.Sink) error, sink trace.Sink) (counts trace.Counts, hit bool, err error) {
	counts, rerr := s.ReplayTo(k, sink)
	if rerr == nil {
		return counts, true, nil
	}
	if !errors.Is(rerr, ErrMiss) {
		// The replay failed after references may have reached sink
		// (records that do not decode under a valid checksum, or a
		// read error); regenerating into the same sink would
		// double-count, so surface the error instead. A removed
		// entry is re-recorded by the next Fetch.
		return counts, false, rerr
	}
	s.forget(s.Path(k))
	counts, err = s.Record(k, gen, sink)
	return counts, false, err
}
