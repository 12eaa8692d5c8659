package isa

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
)

// Program images. The paper's device boots by having a program
// downloaded over its serial links (Section 3's self-test story); the
// image format here is the serialized form of an assembled Program —
// compact, versioned, and self-describing — used by cmd/iramasm to
// build once and run many times.
//
// Layout (all integers little-endian, lengths varint-encoded):
//
//	magic    [8]byte  "iramimg1"
//	entry    uvarint
//	codeBase uvarint
//	nCode    uvarint
//	code     nCode × {op u8, rd u8, rs1 u8, rs2 u8, imm varint}
//	nData    uvarint
//	data     nData × {base uvarint, len uvarint, bytes}
//	nSyms    uvarint
//	syms     nSyms × {len uvarint, name, addr uvarint}

var imageMagic = [8]byte{'i', 'r', 'a', 'm', 'i', 'm', 'g', '1'}

// ErrBadImage reports a corrupt or truncated program image.
var ErrBadImage = errors.New("isa: bad program image")

// The decoder refuses an image beyond MaxInstrs or MaxDataBytes, and
// within them allocates as instructions and bytes arrive, at most
// imageChunk of them ahead, never what a count merely claims.
const imageChunk = 4 << 10

// WriteImage serializes the program.
func WriteImage(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(imageMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putI := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putU(p.Entry); err != nil {
		return err
	}
	if err := putU(p.CodeBase); err != nil {
		return err
	}
	if err := putU(uint64(len(p.Code))); err != nil {
		return err
	}
	for _, ins := range p.Code {
		if _, err := bw.Write([]byte{byte(ins.Op), ins.Rd, ins.Rs1, ins.Rs2}); err != nil {
			return err
		}
		if err := putI(ins.Imm); err != nil {
			return err
		}
	}
	if err := putU(uint64(len(p.Data))); err != nil {
		return err
	}
	for _, seg := range p.Data {
		if err := putU(seg.Base); err != nil {
			return err
		}
		if err := putU(uint64(len(seg.Bytes))); err != nil {
			return err
		}
		if _, err := bw.Write(seg.Bytes); err != nil {
			return err
		}
	}
	// Symbols in sorted order for deterministic images.
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := putU(uint64(len(names))); err != nil {
		return err
	}
	for _, n := range names {
		if err := putU(uint64(len(n))); err != nil {
			return err
		}
		if _, err := bw.WriteString(n); err != nil {
			return err
		}
		if err := putU(p.Symbols[n]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadImage deserializes a program image.
func ReadImage(r io.Reader) (*Program, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header", ErrBadImage)
	}
	if magic != imageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	getU := func() (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("%w: truncated", ErrBadImage)
		}
		return v, nil
	}
	p := &Program{Symbols: map[string]uint64{}}
	var err error
	if p.Entry, err = getU(); err != nil {
		return nil, err
	}
	if p.CodeBase, err = getU(); err != nil {
		return nil, err
	}
	nCode, err := getU()
	if err != nil {
		return nil, err
	}
	if nCode > MaxInstrs {
		return nil, fmt.Errorf("%w: %d instructions exceeds limit", ErrBadImage, nCode)
	}
	p.Code = make([]Instr, 0, min(nCode, imageChunk))
	for i := uint64(0); i < nCode; i++ {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated instruction", ErrBadImage)
		}
		imm, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated immediate", ErrBadImage)
		}
		op := Op(hdr[0])
		if !op.Valid() {
			return nil, fmt.Errorf("%w: invalid opcode %d", ErrBadImage, hdr[0])
		}
		if hdr[1] >= NumRegs || hdr[2] >= NumRegs || hdr[3] >= NumRegs {
			return nil, fmt.Errorf("%w: register out of range", ErrBadImage)
		}
		p.Code = append(p.Code, Instr{Op: op, Rd: hdr[1], Rs1: hdr[2], Rs2: hdr[3], Imm: imm})
	}
	nData, err := getU()
	if err != nil {
		return nil, err
	}
	var total uint64
	for i := uint64(0); i < nData; i++ {
		base, err := getU()
		if err != nil {
			return nil, err
		}
		length, err := getU()
		if err != nil {
			return nil, err
		}
		total += length
		if total > MaxDataBytes {
			return nil, fmt.Errorf("%w: data exceeds limit", ErrBadImage)
		}
		seg := Segment{Base: base, Bytes: make([]byte, 0, min(length, imageChunk))}
		for uint64(len(seg.Bytes)) < length {
			n := int(min(length-uint64(len(seg.Bytes)), imageChunk))
			seg.Bytes = slices.Grow(seg.Bytes, n)
			if _, err := io.ReadFull(br, seg.Bytes[len(seg.Bytes):len(seg.Bytes)+n]); err != nil {
				return nil, fmt.Errorf("%w: truncated data segment", ErrBadImage)
			}
			seg.Bytes = seg.Bytes[:len(seg.Bytes)+n]
		}
		p.Data = append(p.Data, seg)
	}
	nSyms, err := getU()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nSyms; i++ {
		nameLen, err := getU()
		if err != nil {
			return nil, err
		}
		if nameLen > 4096 {
			return nil, fmt.Errorf("%w: symbol name too long", ErrBadImage)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("%w: truncated symbol", ErrBadImage)
		}
		addr, err := getU()
		if err != nil {
			return nil, err
		}
		p.Symbols[string(name)] = addr
	}
	return p, nil
}
