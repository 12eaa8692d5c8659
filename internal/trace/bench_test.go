package trace_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// benchBudget is the instruction budget of the recorded benchmark
// stream: about 0.33M references, a seventh of an average
// full-fidelity Figure 7/8 entry.
const benchBudget = 300_000

// recorder keeps a reference stream in memory.
type recorder []trace.Ref

func (r *recorder) Ref(x trace.Ref)     { *r = append(*r, x) }
func (r *recorder) Refs(xs []trace.Ref) { *r = append(*r, xs...) }

// benchStream is 126.gcc's reference stream, recorded once in memory,
// and its encoding.
var benchStream = sync.OnceValues(func() ([]trace.Ref, []byte) {
	w, err := workload.ByName("126.gcc")
	if err != nil {
		panic(err)
	}
	var refs recorder
	if _, err := vm.RunProgram(w.Build(), &refs, benchBudget); err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		panic(err)
	}
	encodeBatches(tw, refs)
	if err := tw.Close(); err != nil {
		panic(err)
	}
	return refs, buf.Bytes()
})

// encodeBatches hands refs to w in the VM's batch size.
func encodeBatches(w *trace.Writer, refs []trace.Ref) {
	for i := 0; i < len(refs); i += trace.BatchLen {
		w.Refs(refs[i:min(i+trace.BatchLen, len(refs))])
	}
}

// BenchmarkReaderRefs decodes a recorded workload stream from memory
// into a reused batch buffer: the trace-decode layer alone, in
// references per second.
func BenchmarkReaderRefs(b *testing.B) {
	refs, data := benchStream()
	buf := make([]trace.Ref, trace.BatchLen)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			m, err := r.Refs(buf)
			n += m
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if n != len(refs) {
			b.Fatalf("decoded %d references, want %d", n, len(refs))
		}
	}
	b.ReportMetric(float64(len(refs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mref/s")
}

// BenchmarkWriterRefs encodes the same stream to io.Discard in the VM's
// batch size: the trace-encode layer alone, in references per second.
func BenchmarkWriterRefs(b *testing.B) {
	refs, data := benchStream()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := trace.NewWriter(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		encodeBatches(w, refs)
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(refs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mref/s")
}

// BenchmarkCheck runs the replay-time integrity check over the same
// encoding in memory: header, end-of-trace record and CRC-32C, no
// record decoded, in bytes per second.
func BenchmarkCheck(b *testing.B) {
	_, data := benchStream()
	r := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.Check(r, int64(len(data))); err != nil {
			b.Fatal(err)
		}
	}
}
