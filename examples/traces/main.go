// Traces demonstrates the Shade-style capture/replay workflow: run a
// bundled workload once, capture its reference stream to a compact
// trace file, then replay the trace into a sweep of cache geometries —
// the methodology loop behind Figures 7 and 8, without re-executing
// the program for every configuration.
//
// Run with:
//
//	go run ./examples/traces
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	w, err := workload.ByName("101.tomcatv")
	if err != nil {
		log.Fatal(err)
	}

	// 1. Capture: one execution, one trace file.
	path := filepath.Join(os.TempDir(), "tomcatv.trc")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	tw, err := trace.NewWriter(f)
	if err != nil {
		log.Fatal(err)
	}
	const budget = 400_000
	if _, err := vm.RunProgram(w.Build(), tw, budget); err != nil {
		log.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		log.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d references of %s to %s (%.2f bytes/ref)\n\n",
		tw.Count(), w.Name, path, float64(info.Size())/float64(tw.Count()))

	// 2. Replay: one pass of the trace drives a whole design sweep,
	// ending with the paper device's D-cache, without and with its
	// victim cache.
	plain, _ := core.Proposed().DCache()
	sweep := cache.Replay{
		cache.NewDirectMapped("16KB DM 32B", 16<<10, 32),
		cache.NewSetAssoc("16KB 2W 32B", 16<<10, 32, 2),
		plain,
		cache.NewWithVictim(core.Proposed().DCache()),
	}
	in, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer in.Close()
	tr, err := trace.NewReader(in)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tr.Replay(sweep); err != nil {
		log.Fatal(err)
	}

	fmt.Println("data-cache miss rates from one captured trace:")
	for _, c := range sweep {
		fmt.Printf("  %-40s %7.3f%%\n", c.Name(), c.Stats().Data().Percent())
	}
	fmt.Println("\ntomcatv's Figure 8 story in four lines: the 512B-line cache thrashes,")
	fmt.Println("the victim cache absorbs the conflicts, conventional caches sit between.")
}
