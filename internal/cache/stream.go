package cache

import "repro/internal/trace"

// StreamBuffer is the *other* structure from Jouppi's 1990 paper (the
// paper's reference [18] proposes both victim caches and stream
// buffers). The proposed device adopts the victim cache; this
// implementation exists so the ablation experiments can show why: on
// the conflict-dominated workloads of Figure 8 the victim cache's
// eviction-driven fill beats sequential prefetch (the 512 B column
// fills already deliver the sequential prefetch a stream buffer would).
//
// Model: N buffers of sequential 32 B blocks. A main-cache miss that
// hits the HEAD of a buffer is serviced from the buffer (1 cycle); the
// buffer then shifts and prefetches the next sequential block. A miss
// that hits no buffer reallocates the LRU buffer to prefetch the blocks
// after the missing one. Only heads are compared, so how many blocks a
// buffer holds behind its head changes no hit or miss.
type StreamBuffer struct {
	blockSize uint64
	// heads[i] is the next expected block of buffer i; buffers are in
	// MRU order.
	heads []uint64
	valid []bool
}

// NewStreamBuffer builds n stream buffers over 32-byte blocks.
func NewStreamBuffer(n int) *StreamBuffer {
	if n < 1 {
		panic("cache: invalid stream buffer geometry")
	}
	return &StreamBuffer{
		blockSize: VictimLineSize,
		heads:     make([]uint64, n),
		valid:     make([]bool, n),
	}
}

// Lookup services a main-cache miss: a head hit consumes the block and
// prefetches the next; a miss reallocates the LRU buffer.
func (s *StreamBuffer) Lookup(addr uint64) bool {
	block := addr / s.blockSize
	for i := range s.heads {
		if s.valid[i] && s.heads[i] == block {
			// Consume and advance the stream; move buffer to MRU.
			head := block + 1
			copy(s.heads[1:i+1], s.heads[:i])
			copy(s.valid[1:i+1], s.valid[:i])
			s.heads[0] = head
			s.valid[0] = true
			return true
		}
	}
	// Allocate the LRU buffer to stream from the block after the miss.
	n := len(s.heads)
	copy(s.heads[1:], s.heads[:n-1])
	copy(s.valid[1:], s.valid[:n-1])
	s.heads[0] = block + 1
	s.valid[0] = true
	return false
}

// WithStream pairs a main cache with stream buffers, mirroring
// WithVictim so the two Jouppi structures are directly comparable.
type WithStream struct {
	Main   *SetAssoc
	Stream *StreamBuffer
	stats  Stats
}

// NewWithStream wires a main cache to stream buffers.
func NewWithStream(main *SetAssoc, sb *StreamBuffer) *WithStream {
	return &WithStream{Main: main, Stream: sb}
}

// Name implements Cache.
func (w *WithStream) Name() string { return w.Main.Name() + " + stream buffers" }

// Stats implements Cache.
func (w *WithStream) Stats() Stats { return w.stats }

// Access implements Cache.
func (w *WithStream) Access(addr uint64, kind trace.Kind) bool {
	if w.Main.lookup(addr) {
		w.stats.record(kind, false)
		return true
	}
	if w.Stream.Lookup(addr) {
		// Stream-buffer hit: the block moves into the main cache
		// (unlike the victim cache, block and line sizes permit it in
		// Jouppi's design only for equal lines; with 512 B lines the
		// fill happens from DRAM anyway, so we model a main fill).
		w.Main.fill(addr)
		w.stats.record(kind, false)
		return true
	}
	w.Main.fill(addr)
	w.stats.record(kind, true)
	return false
}
