package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// seedCorpus feeds every checked-in trace under testdata/ to the fuzz
// target, so the generators start from complete, valid files.
func seedCorpus(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.trc"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no seed traces in testdata/ (regenerate with go generate ./internal/trace)")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// next decodes one reference through Refs, the way a consumer with a
// one-slot buffer reads the stream.
func (t *Reader) next() (Ref, error) {
	var one [1]Ref
	if _, err := t.Refs(one[:]); err != nil {
		return Ref{}, err
	}
	return one[0], nil
}

// FuzzReaderNext feeds arbitrary bytes to the decoder one reference at
// a time. The contract under attack: the decoder never panics, never
// loops without consuming input, and classifies every malformed stream
// as an error — a downstream cache model can trust that whatever it
// returns was a validly encoded record.
func FuzzReaderNext(f *testing.F) {
	seedCorpus(f)
	// Headerless garbage and a corrupted header round out the seeds.
	f.Add([]byte("not a trace file"))
	f.Add([]byte("iramtrc2\xc0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("NewReader: non-trace error %v", err)
			}
			return
		}
		// Each next consumes at least one byte or terminates, so the
		// record count is bounded by the input length.
		for i := 0; ; i++ {
			if i > len(data)+1 {
				t.Fatalf("decoder failed to terminate after %d records on %d input bytes", i, len(data))
			}
			_, err := r.next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("next: non-trace error %v", err)
				}
				return
			}
		}
	})
}

// FuzzFileRoundTrip interprets arbitrary bytes as a reference stream,
// encodes it, and decodes it back: every valid stream must round-trip
// reference-for-reference, whatever its kind/size/address pattern.
func FuzzFileRoundTrip(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// 10 bytes per reference: kind, size code, 8-byte address.
		refs := make([]Ref, 0, len(data)/10)
		for len(data) >= 10 {
			refs = append(refs, Ref{
				Kind: Kind(data[0] % 3),
				Size: sizeFromCode[data[1]%4],
				Addr: binary.LittleEndian.Uint64(data[2:10]),
			})
			data = data[10:]
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		w.Refs(refs)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range refs {
			got, err := r.next()
			if err != nil {
				t.Fatalf("ref %d/%d: %v", i, len(refs), err)
			}
			if got != refs[i] {
				t.Fatalf("ref %d: got %+v, want %+v", i, got, refs[i])
			}
		}
		if _, err := r.next(); err != io.EOF {
			t.Fatalf("after %d refs: err %v, want io.EOF", len(refs), err)
		}
	})
}
