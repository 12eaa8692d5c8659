// Package resultstore caches assembled sweep-unit results on disk so a
// simulation unit — a workload measurement, a GSPN evaluation, a
// multiprocessor run, a design-space family pass — is computed once and
// its result decoded on every subsequent run: iramsim's -result-cache
// and the store iramsimd shares across its requests.
//
// The store is deliberately dumb: it maps opaque content-address keys
// to checksummed byte payloads. Key derivation (device hash, experiment
// name, params, seed, schema version) and value encoding (versioned
// gob) live with the experiments; the sweep engine mediates between the
// two through the sweep.ResultCache and sweep.Codec seams. That split
// keeps every invalidation rule in exactly one place — the key — and
// lets the store treat any undecodable or mismatched entry as a plain
// miss.
package resultstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/blobstore"
)

// magic heads every cache file; a format change bumps the trailing
// digit so old files miss instead of being misparsed.
const magic = "iramres1"

// Store is an on-disk, content-addressed cache of encoded unit results.
// The embedded blobstore.Store owns the directory of ".res" entries,
// their atomic commit, Path and Prune; this layer adds the entry
// framing (magic, SHA-256 of the payload, payload) and in-process
// single-flight.
//
// Reads verify the checksum over the whole payload before returning
// it, so truncated or bit-flipped entries report a miss — the caller
// recomputes and overwrites — rather than ever surfacing corrupt bytes.
type Store struct {
	*blobstore.Store

	mu       sync.Mutex
	inflight map[string]chan struct{}
}

// NewStore opens (creating if needed) a result cache directory.
func NewStore(dir string) (*Store, error) {
	b, err := blobstore.Open(dir, ".res")
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{Store: b, inflight: make(map[string]chan struct{})}, nil
}

// Get returns the stored payload for key. Any defect — absent file,
// short header, bad magic, checksum mismatch — is a miss, never an
// error: the contract is that a cache can always be regenerated by
// recomputing.
func (s *Store) Get(key string) ([]byte, bool) {
	raw, err := os.ReadFile(s.Path(key))
	if err != nil {
		return nil, false
	}
	if len(raw) < len(magic)+sha256.Size || string(raw[:len(magic)]) != magic {
		return nil, false
	}
	sum := raw[len(magic) : len(magic)+sha256.Size]
	payload := raw[len(magic)+sha256.Size:]
	want := sha256.Sum256(payload)
	if !bytes.Equal(sum, want[:]) {
		return nil, false
	}
	return payload, true
}

// Put atomically installs the payload for key, replacing any existing
// entry.
func (s *Store) Put(key string, data []byte) error {
	sum := sha256.Sum256(data)
	err := s.Commit(key, func(w io.Writer) error {
		for _, chunk := range [][]byte{[]byte(magic), sum[:], data} {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// Acquire serializes in-process work on one key (single-flight): the
// caller holds the key until it invokes the returned release. A second
// Acquire of the same key blocks until the first releases, so when
// several sweep units share a key, one computes and the rest decode
// its stored result. Cross-process races need no lock — Put's atomic
// rename keeps concurrent writers safe, at worst duplicating work.
func (s *Store) Acquire(key string) (release func()) {
	s.mu.Lock()
	for {
		ch, held := s.inflight[key]
		if !held {
			break
		}
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
	ch := make(chan struct{})
	s.inflight[key] = ch
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(ch)
	}
}
