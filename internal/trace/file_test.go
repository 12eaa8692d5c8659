package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, refs []Ref) []Ref {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		w.Ref(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out []Ref
	for {
		ref, err := r.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ref)
	}
	return out
}

func TestFileRoundTripBasic(t *testing.T) {
	refs := []Ref{
		{Ifetch, 0x1000, 4},
		{Ifetch, 0x1004, 4}, // sequential: 1-byte record
		{Load, 0x200000, 8},
		{Store, 0x200000, 8},
		{Ifetch, 0x1008, 4},
		{Load, 0x200008, 8},
		{Load, 0x100, 4}, // big negative delta
	}
	got := roundTrip(t, refs)
	if len(got) != len(refs) {
		t.Fatalf("got %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("ref %d: %+v != %+v", i, got[i], refs[i])
		}
	}
}

func TestFileCompactness(t *testing.T) {
	// A purely sequential ifetch stream must cost ~1 byte/ref.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 10000; i++ {
		w.Ref(Ref{Ifetch, 0x1000 + uint64(i)*4, 4})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Allowance: 8-byte header, one absolute first record, 13-byte
	// end-of-trace record (opcode, count, CRC), 1 byte per sequential
	// reference.
	if buf.Len() > 10000+8+16+13 {
		t.Errorf("sequential trace = %d bytes for 10000 refs, want ~1 byte/ref", buf.Len())
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		refs := make([]Ref, int(n)+1)
		for i := range refs {
			kind := Kind(rng.Intn(3))
			size := []uint8{1, 2, 4, 8}[rng.Intn(4)]
			var addr uint64
			switch rng.Intn(3) {
			case 0:
				addr = uint64(rng.Intn(1 << 20))
			case 1:
				addr = uint64(rng.Uint64()) // anywhere in 64-bit space
			default:
				if i > 0 {
					addr = refs[i-1].Addr + uint64(size)
				}
			}
			refs[i] = Ref{Kind: kind, Addr: addr, Size: size}
		}
		got := roundTrip(t, refs)
		if len(got) != len(refs) {
			return false
		}
		for i := range refs {
			if got[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFileRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty file accepted")
	}
}

// encode builds a complete trace file from refs.
func encode(t *testing.T, refs []Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		w.Ref(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain reads refs until the first error, which it returns.
func drain(t *testing.T, data []byte) (int, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := r.next(); err != nil {
			return n, err
		}
		n++
	}
}

// TestFileTruncated pins the truncation error contract: any prefix of a
// valid trace that cuts a record — or stops before the end-of-trace
// record, even at a record boundary — must surface an error wrapping
// both ErrBadTrace and io.ErrUnexpectedEOF, never a silent io.EOF.
func TestFileTruncated(t *testing.T) {
	full := encode(t, []Ref{
		{Load, 0x123456789a, 8}, // absolute: 9 bytes
		{Load, 0x12345678a2, 8}, // sequential: 1 byte
		{Store, 0x77, 4},        // absolute
	})
	for cut := len(full) - 1; cut >= 8; cut-- {
		n, err := drain(t, full[:cut])
		if err == io.EOF {
			t.Fatalf("cut at %d bytes: silent io.EOF after %d refs", cut, n)
		}
		if !errors.Is(err, ErrBadTrace) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d bytes: err %v, want ErrBadTrace wrapping io.ErrUnexpectedEOF", cut, err)
		}
	}
	if n, err := drain(t, full); err != io.EOF || n != 3 {
		t.Fatalf("full trace: n=%d err=%v, want 3 refs and io.EOF", n, err)
	}
}

// TestReplayTruncationOffset locks the byte offset carried by the
// truncation error Replay surfaces.
func TestReplayTruncationOffset(t *testing.T) {
	full := encode(t, []Ref{{Load, 0x123456789a, 8}, {Load, 0x9000, 2}})
	// Cut into the second record's delta payload: header(8) +
	// absolute(9) + head byte + part of the delta.
	cut := full[:8+9+1+2]
	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	var c Counts
	n, err := r.Replay(&c)
	if n != 1 {
		t.Fatalf("replayed %d refs before truncation, want 1", n)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err %v, want io.ErrUnexpectedEOF", err)
	}
	if want := fmt.Sprintf("offset %d", len(cut)); !strings.Contains(err.Error(), want) {
		t.Errorf("err %q does not carry the failure offset (%s)", err, want)
	}
	if r.Offset() != int64(len(cut)) {
		t.Errorf("Offset() = %d, want %d", r.Offset(), len(cut))
	}
}

// TestFileCountMismatch corrupts the end-of-trace count.
func TestFileCountMismatch(t *testing.T) {
	full := encode(t, []Ref{{Load, 0x40, 4}, {Load, 0x44, 4}})
	bad := bytes.Clone(full)
	bad[len(bad)-12]++ // low byte of the count (followed by the 4-byte CRC)
	if _, err := drain(t, bad); !errors.Is(err, ErrBadTrace) {
		t.Errorf("count mismatch: err %v, want ErrBadTrace", err)
	}
}

// TestFileChecksumMismatch pins the integrity contract: a flipped bit
// that still decodes as a structurally valid stream — right kind, right
// count — is caught by the CRC-32C in the end-of-trace record.
func TestFileChecksumMismatch(t *testing.T) {
	full := encode(t, []Ref{{Load, 0x123456789a, 8}, {Ifetch, 0x4000, 4}})
	// Byte 12 sits inside the first record's absolute address payload:
	// flipping it yields a different but perfectly decodable reference.
	body := bytes.Clone(full)
	body[12] ^= 0x40
	if _, err := drain(t, body); !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("payload bitflip: err %v, want ErrBadTrace naming the checksum", err)
	}
	// A corrupted checksum field itself is equally fatal.
	tail := bytes.Clone(full)
	tail[len(tail)-4] ^= 0x01
	if _, err := drain(t, tail); !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupt checksum: err %v, want ErrBadTrace naming the checksum", err)
	}
}

// TestFileTrailingGarbage rejects bytes after the end-of-trace record.
func TestFileTrailingGarbage(t *testing.T) {
	full := encode(t, []Ref{{Ifetch, 0x1000, 4}})
	if _, err := drain(t, append(bytes.Clone(full), 0x00)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("trailing garbage: err %v, want ErrBadTrace", err)
	}
}

// TestFileRejectsOldVersion pins the version check: a v1 header (no
// end-of-trace record existed in that format) is refused outright.
func TestFileRejectsOldVersion(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("iramtrc1")))
	if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "version") {
		t.Errorf("v1 header: err %v, want ErrBadTrace naming the version", err)
	}
}

// checkBytes runs Check over an in-memory file.
func checkBytes(data []byte) error { return Check(bytes.NewReader(data), int64(len(data))) }

// TestCheck: Check passes every file the Writer produces, within one
// block or across many, and fails every corruption the decoder fails,
// every cut included, with an error wrapping ErrBadTrace.
func TestCheck(t *testing.T) {
	for _, n := range []int{0, 1, 1000, 100_000} {
		if err := checkBytes(encode(t, mixedStream(n))); err != nil {
			t.Errorf("%d references: %v", n, err)
		}
	}
	full := encode(t, mixedStream(100_000))
	if len(full) <= 2*window {
		t.Fatalf("%d-byte stream does not span three blocks", len(full))
	}
	flip := func(i int, mask byte) []byte {
		b := bytes.Clone(full)
		b[i] ^= mask
		return b
	}
	for name, bad := range map[string][]byte{
		"empty":            nil,
		"header only":      full[:8],
		"bad magic":        append([]byte("notatrc2"), full[8:]...),
		"stale version":    append([]byte("iramtrc1"), full[8:]...),
		"cut 5 bytes":      full[:len(full)-5],
		"bitflip":          flip(len(full)/2, 0x40),
		"last block":       flip(len(full)-20, 0x01),
		"count":            flip(len(full)-12, 0x01),
		"checksum":         flip(len(full)-1, 0x80),
		"trailing garbage": append(bytes.Clone(full), 0),
	} {
		if err := checkBytes(bad); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: Check = %v, want ErrBadTrace", name, err)
		}
		if r, err := NewReader(bytes.NewReader(bad)); err == nil {
			if _, err := r.Replay(Discard); err == nil {
				t.Errorf("%s: the decoder accepts what Check rejects", name)
			}
		}
	}
	small := encode(t, mixedStream(10))
	for cut := range len(small) {
		if err := checkBytes(small[:cut]); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("cut at %d of %d bytes: Check = %v, want ErrBadTrace", cut, len(small), err)
		}
	}
}

// TestCheckTrustsTheChecksum pins what Check leaves to the decoder:
// records that do not decode under a checksum that holds. The Writer
// never produces such a file; the Reader rejects it.
func TestCheckTrustsTheChecksum(t *testing.T) {
	full := encode(t, mixedStream(1000))
	// Replace the end-of-trace record with a record in address mode
	// 14, which no version defines, and write a new trailer over it.
	bad := append(bytes.Clone(full[:len(full)-trailerLen]), 0x0e, endMarker)
	bad = binary.LittleEndian.AppendUint64(bad, 1000)
	bad = binary.LittleEndian.AppendUint32(bad, crc32.Checksum(bad, crcTable))
	if err := checkBytes(bad); err != nil {
		t.Fatalf("Check = %v on a file whose checksum holds", err)
	}
	if _, err := drain(t, bad); !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "address mode 14") {
		t.Errorf("decode: err %v, want ErrBadTrace naming address mode 14", err)
	}
}

// failingReaderAt fails every read with err.
type failingReaderAt struct{ err error }

func (f failingReaderAt) ReadAt([]byte, int64) (int, error) { return 0, f.err }

// TestCheckReadError: a read error is returned as is, not as a corrupt
// file.
func TestCheckReadError(t *testing.T) {
	readErr := errors.New("disk on fire")
	err := Check(failingReaderAt{readErr}, 100)
	if !errors.Is(err, readErr) || errors.Is(err, ErrBadTrace) {
		t.Errorf("Check = %v, want the read error and not ErrBadTrace", err)
	}
}

func TestWriterRejectsBadRefs(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Ref(Ref{Load, 0, 3}) // invalid size
	if err := w.Close(); err == nil {
		t.Error("bad size not reported")
	}
}

func TestReplay(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 100; i++ {
		w.Ref(Ref{Load, uint64(i) * 8, 8})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var c Counts
	n, err := r.Replay(&c)
	if err != nil || n != 100 || c.Loads != 100 {
		t.Errorf("replay: n=%d err=%v counts=%+v", n, err, c)
	}
}

// mixedStream returns n deterministic references that use every
// address mode: sequential fetches, short and long deltas per kind, and
// an absolute first record.
func mixedStream(n int) []Ref {
	rng := rand.New(rand.NewSource(int64(n)))
	refs := make([]Ref, n)
	pc, data := uint64(0x1000), uint64(0x200000)
	for i := range refs {
		switch rng.Intn(4) {
		case 0, 1:
			refs[i] = Ref{Ifetch, pc, 4}
			pc += 4
		case 2:
			data += uint64(rng.Intn(1<<12)) * 8
			refs[i] = Ref{Load, data, 8}
		default:
			refs[i] = Ref{Store, rng.Uint64() >> rng.Intn(64), 4}
		}
	}
	return refs
}

// TestReplayZeroAllocs pins the decoder's allocation contract: a replay
// allocates once per stream (the reader, its window and the batch
// buffer), never per reference, so 10x the references cost the same
// allocations.
func TestReplayZeroAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		data := encode(t, mixedStream(n))
		var c Counts
		return testing.AllocsPerRun(5, func() {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := r.Replay(&c); err != nil || got != int64(n) {
				t.Fatalf("replayed %d of %d references: %v", got, n, err)
			}
		})
	}
	if small, large := allocs(10_000), allocs(100_000); small != large {
		t.Errorf("replay allocations grow with the stream: %v at 10k references, %v at 100k", small, large)
	}
}

// TestWriterZeroAllocs is the encoder's twin of TestReplayZeroAllocs:
// encoding to io.Discard in the VM's batch size allocates once per
// stream.
func TestWriterZeroAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		refs := mixedStream(n)
		return testing.AllocsPerRun(5, func() {
			w, err := NewWriter(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(refs); i += BatchLen {
				w.Refs(refs[i:min(i+BatchLen, len(refs))])
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10_000), allocs(100_000); small != large {
		t.Errorf("encode allocations grow with the stream: %v at 10k references, %v at 100k", small, large)
	}
}

// stalled yields its bytes, then returns (0, nil) forever.
type stalled struct{ data []byte }

func (s *stalled) Read(p []byte) (int, error) {
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// TestReaderNoProgress: a source that stops delivering bytes without
// reporting an error ends decoding with io.ErrNoProgress, wherever it
// stalls, instead of hanging the reader.
func TestReaderNoProgress(t *testing.T) {
	full := encode(t, mixedStream(1000))
	for _, cut := range []int{0, 4, 8, 100, len(full) - 1} {
		r, err := NewReader(&stalled{data: full[:cut]})
		if err == nil {
			_, err = r.Replay(Discard)
		}
		if !errors.Is(err, io.ErrNoProgress) {
			t.Errorf("stalled after %d bytes: err %v, want io.ErrNoProgress", cut, err)
		}
	}
}
