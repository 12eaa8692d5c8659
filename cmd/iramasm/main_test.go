package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestParseCacheSpec(t *testing.T) {
	c, err := parseCacheSpec("16384:32:2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "16KB 2-way 32B" {
		t.Errorf("name = %q", c.Name())
	}
	if _, err := parseCacheSpec("proposed"); err != nil {
		t.Errorf("proposed spec rejected: %v", err)
	}
	for _, bad := range []string{
		"", "16384:32", "a:b:c", "100:32:2", "16384:32:0",
		"16384:0:1",                     // zero line
		"0:32:1",                        // zero size
		"16384:32:-2",                   // negative ways
		"16384:48:1",                    // non-power-of-two line
		"96:32:1",                       // 3 sets: non-power-of-two set count
		"16:32:1",                       // line larger than cache
		"16384:32:1024",                 // more ways than lines
		"2147483648:32:1",               // 2^26 lines, over the line limit
		"2097152:1:1",                   // 2^21 one-byte lines
		"1073741824:1:1",                // 2^30 lines: would take ~24 GiB
		"18446744073709551615:32:1",     // uint64 max size
		"16384:18446744073709551615:1",  // uint64 max line
		"16384:32:18446744073709551616", // ways overflows int
	} {
		if _, err := parseCacheSpec(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		} else if !strings.Contains(err.Error(), "bad -cache spec") {
			t.Errorf("bad spec %q: error %q missing 'bad -cache spec' prefix", bad, err)
		}
	}
	// Fully-associative and direct-mapped extremes remain valid, and so
	// does a cache of exactly maxCacheLines lines, of any byte size.
	for _, good := range []string{"16384:512:2", "512:512:1", "1024:32:32", "1048576:1:1", "2147483648:2048:16"} {
		if _, err := parseCacheSpec(good); err != nil {
			t.Errorf("good spec %q rejected: %v", good, err)
		}
	}
}

// FuzzParseCacheSpec: any -cache value is refused with an error or
// builds a cache of at most maxCacheLines lines, never a panic.
func FuzzParseCacheSpec(f *testing.F) {
	for _, seed := range []string{
		"proposed", "16384:32:2", "1024:32:32", "1048576:1:1", "2097152:1:1",
		"1073741824:1:1", "96:32:1", "16384:32:1024", "16384:32:-2",
		"18446744073709551615:32:1", "16384:18446744073709551615:1", "::", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if _, err := parseCacheSpec(s); err != nil || s == "proposed" {
			return
		}
		parts := strings.Split(s, ":")
		size, _ := strconv.ParseUint(parts[0], 10, 64)
		line, _ := strconv.ParseUint(parts[1], 10, 64)
		if size/line > maxCacheLines {
			t.Errorf("accepted %q: %d lines, over the limit of %d", s, size/line, maxCacheLines)
		}
	})
}

func TestCacheSpecsFlag(t *testing.T) {
	var cs cacheSpecs
	if err := cs.Set("proposed"); err != nil {
		t.Fatal(err)
	}
	if err := cs.Set("16384:32:1"); err != nil {
		t.Fatal(err)
	}
	if cs.String() != "proposed,16384:32:1" {
		t.Errorf("String() = %q", cs.String())
	}
}

func writeDemo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "demo.s")
	src := `
main:	li   r10, 0x1000000
	li   r2, 256
loop:	ld   r4, 0(r10)
	add  r5, r5, r4
	addi r10, r10, 8
	addi r2, r2, -1
	bne  r2, zero, loop
	halt
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdRunListMix(t *testing.T) {
	path := writeDemo(t)
	if err := cmdRun([]string{path}); err != nil {
		t.Errorf("run: %v", err)
	}
	if err := cmdList([]string{path}); err != nil {
		t.Errorf("list: %v", err)
	}
	if err := cmdMix([]string{path}); err != nil {
		t.Errorf("mix: %v", err)
	}
}

func TestCmdTraceReplay(t *testing.T) {
	path := writeDemo(t)
	trc := filepath.Join(filepath.Dir(path), "demo.trc")
	if err := cmdTrace([]string{"-o", trc, path}); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if err := cmdReplay([]string{trc}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := cmdReplay([]string{"-cache", "8192:32:1", trc}); err != nil {
		t.Fatalf("replay with spec: %v", err)
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdRun([]string{}); err == nil {
		t.Error("run without file accepted")
	}
	if err := cmdTrace([]string{"nope.s"}); err == nil {
		t.Error("trace without -o accepted")
	}
	if err := cmdReplay([]string{"/nonexistent.trc"}); err == nil {
		t.Error("replay of missing file accepted")
	}
	if err := cmdRun([]string{"/nonexistent.s"}); err == nil {
		t.Error("run of missing file accepted")
	}
}

// TestCmdDisRoundTrip: `iramasm dis -roundtrip` on both a source file
// and a built image, writing the recovered assembly out and checking it
// is itself assemblable input for `iramasm run`.
func TestCmdDisRoundTrip(t *testing.T) {
	path := writeDemo(t)
	dir := filepath.Dir(path)
	img := filepath.Join(dir, "demo.img")
	if err := cmdBuild([]string{"-o", img, path}); err != nil {
		t.Fatalf("build: %v", err)
	}
	recovered := filepath.Join(dir, "recovered.s")
	if err := cmdDis([]string{"-roundtrip", "-o", recovered, img}, io.Discard); err != nil {
		t.Fatalf("dis image: %v", err)
	}
	if err := cmdDis([]string{"-roundtrip", path}, io.Discard); err != nil {
		t.Fatalf("dis source: %v", err)
	}
	if err := cmdRun([]string{recovered}); err != nil {
		t.Fatalf("run recovered assembly: %v", err)
	}
	if err := cmdDis([]string{}, io.Discard); err == nil {
		t.Error("dis without file accepted")
	}
	if err := cmdDis([]string{"/nonexistent.img"}, io.Discard); err == nil {
		t.Error("dis of missing file accepted")
	}
}

func TestCmdBuildAndRunImage(t *testing.T) {
	path := writeDemo(t)
	img := filepath.Join(filepath.Dir(path), "demo.img")
	if err := cmdBuild([]string{"-o", img, path}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := cmdRun([]string{img}); err != nil {
		t.Fatalf("run image: %v", err)
	}
	if err := cmdList([]string{img}); err != nil {
		t.Fatalf("list image: %v", err)
	}
	if err := cmdBuild([]string{path}); err == nil {
		t.Error("build without -o accepted")
	}
}

func TestRunWorkloadRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if err := cmdDis([]string{"-roundtrip", "-workload", "hashjoin"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "main:") {
		t.Errorf("disassembly missing main label:\n%.400s", out.String())
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := cmdDis([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	names := strings.Fields(out.String())
	if len(names) != len(workload.All()) {
		t.Errorf("-list printed %d names, want %d", len(names), len(workload.All()))
	}
}

func TestRunFileAndOutput(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "demo.s")
	if err := os.WriteFile(src, []byte("main:\tli r1, 42\n\thalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "demo.dis.s")
	var stdout bytes.Buffer
	if err := cmdDis([]string{"-roundtrip", "-o", out, src}, &stdout); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "addi r1, r0, 42") {
		t.Errorf("unexpected disassembly:\n%s", b)
	}
	if stdout.Len() != 0 {
		t.Errorf("-o also wrote %d bytes to stdout", stdout.Len())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := cmdDis(nil, &out); err == nil {
		t.Error("no arguments accepted")
	}
	if err := cmdDis([]string{"-workload", "nonesuch"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := cmdDis([]string{"-workload", "gemm", "extra.s"}, &out); err == nil {
		t.Error("-workload with a file argument accepted")
	}
	if err := cmdDis([]string{"/nonexistent.img"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := cmdDis([]string{"-nosuchflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}
