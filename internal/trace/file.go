package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
)

// Trace file format: Shade-style capture of a reference stream so that
// expensive workload executions can be replayed into many cache
// configurations without re-running the program.
//
// A file is:
//
//	8-byte magic "iramtrc" + one ASCII version byte ('2')
//	zero or more reference records
//	one end-of-trace record
//
// The reference encoding is a compact delta format. Each record starts
// with one opcode byte:
//
//	bits 7-6  kind (0 ifetch, 1 load, 2 store, 3 end-of-trace)
//	bits 5-4  size code (0=1, 1=2, 2=4, 3=8 bytes)
//	bits 3-0  address mode:
//	   0      delta == +size of previous same-kind access (no payload)
//	   1..8   n-byte little-endian signed delta from the previous
//	          same-kind address
//	   15     8-byte absolute address (the Writer uses it only for the
//	          first record, which has no previous address)
//
// Sequential streams (the common case: instruction fetches, array
// sweeps) cost one byte per reference.
//
// The end-of-trace record (opcode 0xC0, written by Writer.Close) is
// followed by the total reference count as an 8-byte little-endian
// integer, then a CRC-32C of every preceding byte of the file (header
// and count included), and must be the last bytes of the file. It lets
// a reader distinguish a complete trace from one truncated at a record
// boundary — plain EOF before the marker is corruption, not
// termination — and the checksum catches bit rot that still decodes as
// a structurally valid stream. Version 1 files (no end marker, no
// checksum) are not readable by this package.

// FormatVersion is the trace file format generation. It participates in
// Store cache keys, so bumping it invalidates every cached trace.
const FormatVersion = 2

// fileMagic identifies a trace file; the last byte is the version.
var fileMagic = [8]byte{'i', 'r', 'a', 'm', 't', 'r', 'c', '0' + FormatVersion}

// endMarker is the opcode byte of the end-of-trace record (kind 3,
// size code 0, address mode 0).
const endMarker = 0xC0

// ErrBadTrace reports a corrupt or truncated trace file.
var ErrBadTrace = errors.New("trace: corrupt trace file")

// crcTable is the Castagnoli polynomial (hardware-accelerated on the
// platforms we care about); the checksum seeds from zero at byte 0 of
// the file.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// sizeFromCode maps an opcode's size field to the access size in bytes.
var sizeFromCode = [4]uint8{1, 2, 4, 8}

// window is the codec's block size. The Writer encodes into a buffer
// of this size and the Reader decodes out of one; each folds a whole
// block into the CRC-32C when it flushes or refills, never a byte at a
// time.
const window = 1 << 16

// maxRecord is the longest record: an opcode byte and an 8-byte
// payload (the end-of-trace opcode and its count are as long).
const maxRecord = 9

// trailerLen is the length of a file's last record, the end-of-trace
// opcode and its count, plus the 4-byte checksum after it.
const trailerLen = maxRecord + 4

// maxEmptyReads bounds consecutive (0, nil) reads from a source before
// the Reader gives up with io.ErrNoProgress, as bufio.Reader does.
const maxEmptyReads = 100

// Writer encodes a reference stream to an io.Writer, one window-sized
// block per write. It implements Sink, so it can be used directly as a
// VM sink or inside a Tee.
type Writer struct {
	w     io.Writer
	last  [3]uint64 // previous address per kind
	count int64     // references encoded
	crc   uint32    // CRC-32C of every byte flushed
	err   error     // first encoding or write error; later calls do nothing
	n     int       // bytes pending in buf
	buf   [window]byte
}

// NewWriter creates a trace writer. The header is buffered with the
// first block, so a failing destination is reported by Close; the
// error result is always nil.
func NewWriter(w io.Writer) (*Writer, error) {
	t := &Writer{w: w}
	t.n = copy(t.buf[:], fileMagic[:])
	return t, nil
}

// Ref implements Sink. Encoding errors are sticky and surfaced by
// Close (a Sink cannot return errors per reference).
func (t *Writer) Ref(r Ref) {
	one := [1]Ref{r}
	t.Refs(one[:])
}

// Refs implements BatchSink. It encodes each reference straight into
// the block buffer, flushing the block when a record might not fit.
func (t *Writer) Refs(rs []Ref) {
	if t.err != nil {
		return
	}
	n, last, count := t.n, t.last, t.count
	for _, r := range rs {
		sc, ok := sizeCode(r.Size)
		if !ok {
			t.err = fmt.Errorf("trace: bad reference size %d", r.Size)
			break
		}
		k := uint8(r.Kind)
		if k > 2 {
			t.err = fmt.Errorf("trace: bad reference kind %d", r.Kind)
			break
		}
		if window-n < maxRecord {
			t.n = n
			t.flush()
			n = 0
			if t.err != nil {
				break
			}
		}
		b := t.buf[n : n+maxRecord]
		head := k<<6 | sc<<4
		delta := int64(r.Addr - last[k])
		last[k] = r.Addr
		count++
		switch {
		case count == 1: // no previous address yet: absolute
			head |= 15
			binary.LittleEndian.PutUint64(b[1:], r.Addr)
			n += maxRecord
		case delta == int64(r.Size):
			n++
		default:
			nb := signedLen(delta)
			head |= uint8(nb)
			binary.LittleEndian.PutUint64(b[1:], uint64(delta))
			n += 1 + nb
		}
		b[0] = head
	}
	t.n, t.last, t.count = n, last, count
}

// sizeCode returns the opcode's size field for an access of size
// bytes, and false for a size the format cannot encode.
func sizeCode(size uint8) (uint8, bool) {
	switch size {
	case 1:
		return 0, true
	case 2:
		return 1, true
	case 4:
		return 2, true
	case 8:
		return 3, true
	}
	return 0, false
}

// signedLen returns the fewest bytes (1..8) that hold v as a
// little-endian two's-complement integer.
func signedLen(v int64) int {
	if v < 0 {
		v = ^v
	}
	// One sign bit plus the magnitude's significant bits.
	return (64 - bits.LeadingZeros64(uint64(v)) + 8) / 8
}

// flush folds the pending block into the checksum and writes it out.
func (t *Writer) flush() {
	t.crc = crc32.Update(t.crc, crcTable, t.buf[:t.n])
	t.write(t.buf[:t.n])
	t.n = 0
}

// write hands p to the destination unless an error is already pending.
func (t *Writer) write(p []byte) {
	if t.err == nil {
		_, t.err = t.w.Write(p)
	}
}

// Count returns the number of references written.
func (t *Writer) Count() int64 { return t.count }

// Close writes the end-of-trace record, flushes the stream, and
// returns any deferred encoding error. A trace without the end record
// is corrupt by definition; abandon the output on error.
func (t *Writer) Close() error {
	if window-t.n < maxRecord {
		t.flush()
	}
	t.buf[t.n] = endMarker
	binary.LittleEndian.PutUint64(t.buf[t.n+1:], uint64(t.count))
	t.n += maxRecord
	t.flush()
	// The checksum itself is excluded from the checksummed range.
	binary.LittleEndian.PutUint32(t.buf[:4], t.crc)
	t.write(t.buf[:4])
	return t.err
}

// Reader decodes a trace file out of a window-sized buffer that it
// refills from the source as records are consumed.
type Reader struct {
	r    io.Reader
	rerr error // the source's first error (io.EOF at the end of input)
	base int64 // file offset of buf[0]
	pos  int   // next undecoded byte in buf
	end  int   // bytes buffered in buf
	sum  int   // buf[:sum] is already folded into crc
	crc  uint32
	last [3]uint64
	n    int64 // references decoded
	done bool  // end-of-trace record seen and verified
	// buf is the decode window. The 8 bytes past window let a payload
	// load read a whole word wherever its record starts; the record's
	// mode says how many of those bytes count.
	buf [window + 8]byte
}

// NewReader validates the header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	t := &Reader{r: r}
	t.refill()
	if t.end < len(fileMagic) {
		if t.rerr != io.EOF {
			return nil, fmt.Errorf("%w: missing header: %w", ErrBadTrace, t.rerr)
		}
		return nil, fmt.Errorf("%w: missing header", ErrBadTrace)
	}
	if err := checkMagic(t.buf[:len(fileMagic)]); err != nil {
		return nil, err
	}
	t.pos = len(fileMagic)
	return t, nil
}

// checkMagic validates a file's first 8 bytes: the magic and the
// format version.
func checkMagic(b []byte) error {
	if magic := [8]byte(b); magic != fileMagic {
		if [7]byte(magic[:7]) == [7]byte(fileMagic[:7]) {
			return fmt.Errorf("%w: unsupported format version %c (want %c)",
				ErrBadTrace, magic[7], fileMagic[7])
		}
		return fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	return nil
}

// Check validates a whole trace file of size bytes without decoding
// its records: the magic and format version, the end-of-trace opcode
// where a complete file has it, and the CRC-32C of every byte before
// the checksum against the checksum. It reads one window-sized block
// at a time, so its memory does not grow with the file. Every failure
// wraps ErrBadTrace, except a read error, which it returns as is.
//
// A file that passes can still hold records that do not decode or a
// count that does not match them, because the checksum covers only
// what the writer wrote: the Writer never produces such a file, but
// one made by hand can. The Reader checks every record, the count and
// the checksum again as it decodes.
func Check(r io.ReaderAt, size int64) error {
	if size < int64(len(fileMagic)) {
		return fmt.Errorf("%w: missing header", ErrBadTrace)
	}
	buf := make([]byte, window)
	if err := readAt(r, buf[:len(fileMagic)], 0); err != nil {
		return err
	}
	if err := checkMagic(buf[:len(fileMagic)]); err != nil {
		return err
	}
	if size < int64(len(fileMagic)+trailerLen) {
		return fmt.Errorf("%w: missing end-of-trace record in %d bytes: %w",
			ErrBadTrace, size, io.ErrUnexpectedEOF)
	}
	if err := readAt(r, buf[:trailerLen], size-trailerLen); err != nil {
		return err
	}
	if buf[0] != endMarker {
		return fmt.Errorf("%w: no end-of-trace record at offset %d", ErrBadTrace, size-trailerLen)
	}
	want := binary.LittleEndian.Uint32(buf[maxRecord:trailerLen])
	var crc uint32
	for off, end := int64(0), size-4; off < end; {
		b := buf[:min(int64(window), end-off)]
		if err := readAt(r, b, off); err != nil {
			return err
		}
		crc = crc32.Update(crc, crcTable, b)
		off += int64(len(b))
	}
	if crc != want {
		return fmt.Errorf("%w: checksum %08x, computed %08x", ErrBadTrace, want, crc)
	}
	return nil
}

// readAt fills b from r at offset off. Input that ends first is a
// truncated file.
func readAt(r io.ReaderAt, b []byte, off int64) error {
	n, err := r.ReadAt(b, off)
	switch {
	case n == len(b):
		return nil
	case err != nil && err != io.EOF:
		return err
	}
	return fmt.Errorf("%w: input ends at offset %d: %w", ErrBadTrace, off+int64(n), io.ErrUnexpectedEOF)
}

// refill folds the decoded bytes into the checksum, moves the
// undecoded tail to the front of the window, and reads until a whole
// record is buffered or the source reports an error. A source that
// keeps returning no bytes and no error ends in io.ErrNoProgress.
func (t *Reader) refill() {
	t.crc = crc32.Update(t.crc, crcTable, t.buf[t.sum:t.pos])
	t.base += int64(t.pos)
	t.end = copy(t.buf[:], t.buf[t.pos:t.end])
	t.pos, t.sum = 0, 0
	for empty := 0; t.end < maxRecord && t.rerr == nil; {
		n, err := t.r.Read(t.buf[t.end:window])
		t.end += n
		t.rerr = err
		if n > 0 {
			empty = 0
		} else if empty++; empty == maxEmptyReads && err == nil {
			t.rerr = io.ErrNoProgress
		}
	}
}

// Offset returns the number of bytes consumed so far (header included):
// the file offset at which the next record starts, or at which decoding
// stopped after an error.
func (t *Reader) Offset() int64 { return t.base + int64(t.pos) }

// BatchLen is the default replay staging-buffer length, matched to the
// VM run loop's batch size so replayed and live streams hit BatchSink
// consumers with the same slice granularity.
const BatchLen = 256

// Refs decodes up to len(buf) references into buf, returning how many
// were filled. It returns io.EOF (possibly with n > 0) at a verified
// end-of-trace record; every other end of input is corruption. In
// particular a partial trailing record — or input that stops at a
// record boundary without the end marker — returns an error wrapping
// both ErrBadTrace and io.ErrUnexpectedEOF, carrying the byte offset of
// the failure, and never a bare io.EOF.
func (t *Reader) Refs(buf []Ref) (int, error) {
	if t.done {
		return 0, io.EOF
	}
	pos, end, last := t.pos, t.end, t.last
	for i := range buf {
		if end-pos < maxRecord {
			t.pos = pos
			t.refill()
			pos, end = t.pos, t.end
		}
		if pos == end {
			t.last, t.n = last, t.n+int64(i)
			if t.rerr == io.EOF {
				return i, fmt.Errorf("%w: missing end-of-trace record at offset %d: %w",
					ErrBadTrace, t.Offset(), io.ErrUnexpectedEOF)
			}
			return i, t.rerr
		}
		head := t.buf[pos]
		kind := Kind(head >> 6)
		size := sizeFromCode[(head>>4)&3]
		mode := int(head & 0x0f) // also the payload length, once checked
		var err error
		var addr uint64
		switch {
		case kind > Store:
			t.pos = pos + 1
			err = t.finish(head, t.n+int64(i))
		case mode == 0:
			addr = last[kind] + uint64(size)
		case mode <= 8:
			if pos+1+mode > end {
				err = t.truncated("delta")
				break
			}
			// Sign-extend the little-endian delta.
			shift := uint(64 - 8*mode)
			v := int64(binary.LittleEndian.Uint64(t.buf[pos+1:])) << shift >> shift
			addr = last[kind] + uint64(v)
		case mode == 15:
			if pos+maxRecord > end {
				err = t.truncated("address")
				break
			}
			addr = binary.LittleEndian.Uint64(t.buf[pos+1:])
			mode = 8 // payload length
		default:
			t.pos = pos + 1
			err = fmt.Errorf("%w: address mode %d at offset %d", ErrBadTrace, mode, t.Offset()-1)
		}
		if err != nil {
			t.last, t.n = last, t.n+int64(i)
			return i, err
		}
		pos += 1 + mode
		last[kind] = addr
		buf[i] = Ref{Kind: kind, Addr: addr, Size: size}
	}
	t.pos, t.last, t.n = pos, last, t.n+int64(len(buf))
	return len(buf), nil
}

// truncated consumes the rest of the input and reports a record cut
// short by it: ErrBadTrace + io.ErrUnexpectedEOF + the byte offset at
// which the input ended.
func (t *Reader) truncated(what string) error {
	t.pos = t.end
	if t.rerr != io.EOF {
		return t.rerr
	}
	return fmt.Errorf("%w: truncated %s at offset %d: %w",
		ErrBadTrace, what, t.Offset(), io.ErrUnexpectedEOF)
}

// take consumes the next n <= maxRecord bytes of the end-of-trace
// record.
func (t *Reader) take(n int, what string) ([]byte, error) {
	if t.end-t.pos < n {
		t.refill()
		if t.end-t.pos < n {
			return nil, t.truncated(what)
		}
	}
	t.pos += n
	return t.buf[t.pos-n : t.pos], nil
}

// finish validates the end-of-trace record whose opcode it was handed:
// the count must match the decoded references, the checksum the bytes
// before it, and nothing may follow it.
func (t *Reader) finish(head byte, decoded int64) error {
	if head != endMarker {
		return fmt.Errorf("%w: bad end-of-trace opcode 0x%02x at offset %d",
			ErrBadTrace, head, t.Offset()-1)
	}
	b, err := t.take(8, "end-of-trace count")
	if err != nil {
		return err
	}
	if count := int64(binary.LittleEndian.Uint64(b)); count != decoded {
		return fmt.Errorf("%w: end-of-trace count %d, decoded %d records", ErrBadTrace, count, decoded)
	}
	// The checksum covers everything up to and including the count.
	t.crc = crc32.Update(t.crc, crcTable, t.buf[t.sum:t.pos])
	t.sum = t.pos
	want := t.crc
	if b, err = t.take(4, "checksum"); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(b); got != want {
		return fmt.Errorf("%w: checksum %08x, computed %08x", ErrBadTrace, got, want)
	}
	if t.pos == t.end {
		t.refill()
	}
	if t.pos < t.end {
		return fmt.Errorf("%w: trailing data after end-of-trace record at offset %d", ErrBadTrace, t.Offset())
	}
	if t.rerr != io.EOF {
		return t.rerr
	}
	t.done = true
	return io.EOF
}

// Replay streams the remaining references into a sink, returning the
// count delivered. Decode errors carry the byte offset at which the
// trace went bad (see Refs). References are decoded into one BatchLen
// buffer and handed to the sink in slices via the BatchSink fast path
// where the sink supports it, so replay costs no allocation per
// reference.
func (t *Reader) Replay(sink Sink) (int64, error) {
	buf := make([]Ref, BatchLen)
	var n int64
	for {
		m, err := t.Refs(buf)
		if m > 0 {
			EmitAll(sink, buf[:m])
			n += int64(m)
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}
