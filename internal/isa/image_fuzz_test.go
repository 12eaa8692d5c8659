package isa_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// FuzzReadImage feeds arbitrary bytes to ReadImage, the decoder of
// iramasm's image files: they must give an error or a program, never a
// panic or an allocation out of proportion to the input, and a program
// they give must come back unchanged through WriteImage and ReadImage.
func FuzzReadImage(f *testing.F) {
	// Short images that claim 16M instructions and a 64 MiB data
	// segment: a decoder that allocates what a count claims before
	// reading what it counts spends 256 MiB and 64 MiB on them.
	header := func(v ...uint64) []byte {
		img := []byte("iramimg1")
		for _, x := range v {
			img = binary.AppendUvarint(img, x)
		}
		return img
	}
	f.Add(header(0, 0, 16<<20))
	f.Add(header(0, 0, 0, 1, 0, 64<<20))
	for _, name := range []string{"129.compress", "101.tomcatv"} {
		w, err := workload.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := isa.WriteImage(&buf, w.Build()); err != nil {
			f.Fatal(err)
		}
		img := buf.Bytes()
		f.Add(img)
		for _, n := range []int{len(img) - 1, len(img) / 2, 12, 8} {
			f.Add(img[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := isa.ReadImage(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// Every decoded byte costs at most a few dozen allocated
		// (an instruction takes at least 5 bytes and 16 in memory, a
		// symbol at least 2 and one map entry), plus the reader's
		// buffer and the chunk a decoder reads ahead.
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(data))+256<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := isa.WriteImage(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := isa.ReadImage(&buf)
		if err != nil {
			t.Fatalf("re-reading a written image: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the program:\n%+v\n%+v", p, q)
		}
	})
}
