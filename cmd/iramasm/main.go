// Command iramasm is the developer tool for the simulated device's
// ISA: assemble, disassemble, list, and run programs; capture their
// reference streams to trace files; replay traces into arbitrary cache
// configurations; and report instruction mixes.
//
// Usage:
//
//	iramasm build  -o out.img file.s
//	iramasm run    [-budget N] [-regs] file.s|file.img
//	iramasm list   file.s|file.img
//	iramasm mix    [-budget N] file.s|file.img
//	iramasm trace  [-budget N] -o out.trc file.s|file.img
//	iramasm replay [-cache SIZE:LINE:WAYS]... in.trc
//	iramasm dis    [-o out.s] [-roundtrip] file.s|file.img
//	iramasm dis    [-o out.s] [-roundtrip] -workload NAME
//	iramasm dis    -list
//
// Program images (.img) are the serialized form of an assembled
// program — build once, run many times, or "download" into the device
// as the paper's Section 3 tester does. dis decodes an image back to
// canonical assembly: labels come from the image's symbol table and
// data segments become .data/.org/.byte/.dword directives, so
// reassembling the output with build gives a byte-identical image.
//
// Cache specs are like "16384:32:1" (bytes:line:ways); "proposed"
// selects the paper's 16 KB 2-way column-buffer cache with the victim
// cache. Replay always reports each configured cache's miss rates.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dis"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "build":
		err = cmdBuild(args)
	case "run":
		err = cmdRun(args)
	case "list":
		err = cmdList(args)
	case "mix":
		err = cmdMix(args)
	case "trace":
		err = cmdTrace(args)
	case "replay":
		err = cmdReplay(args)
	case "dis":
		err = cmdDis(args, os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iramasm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  iramasm build  -o out.img file.s
  iramasm run    [-budget N] [-regs] file.s|file.img
  iramasm list   file.s|file.img
  iramasm mix    [-budget N] file.s|file.img
  iramasm trace  [-budget N] -o out.trc file.s|file.img
  iramasm replay [-cache SIZE:LINE:WAYS]... in.trc
  iramasm dis    [-o out.s] [-roundtrip] file.s|file.img
  iramasm dis    [-o out.s] [-roundtrip] -workload NAME
  iramasm dis    -list`)
}

// loadProgram reads either assembly source or a prebuilt image,
// selected by the .img extension.
func loadProgram(path string) (*isa.Program, error) {
	if strings.HasSuffix(path, ".img") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return isa.ReadImage(f)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return asm.Assemble(string(src))
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("o", "", "output image file (required)")
	fs.Parse(args)
	if fs.NArg() != 1 || *out == "" {
		return fmt.Errorf("build: need -o out.img and one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	if err := isa.WriteImage(f, p); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d instructions, %d data segments, %d bytes\n",
		*out, len(p.Code), len(p.Data), info.Size())
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	budget := fs.Int64("budget", 10_000_000, "instruction budget")
	regs := fs.Bool("regs", false, "dump registers on exit")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run: need exactly one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	var counts trace.Counts
	cpu, err := vm.RunProgram(p, &counts, *budget)
	if err != nil {
		return err
	}
	fmt.Printf("halted=%v instructions=%d loads=%d stores=%d branches=%d taken=%d flops=%d\n",
		cpu.Halted(), cpu.Instructions, counts.Loads, counts.Stores,
		cpu.Branches, cpu.TakenBranches, cpu.FloatOps)
	if *regs {
		for i := 0; i < isa.NumRegs; i += 4 {
			for j := i; j < i+4; j++ {
				fmt.Printf("r%-2d %#-18x ", j, cpu.Regs[j])
			}
			fmt.Println()
		}
	}
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("list: need exactly one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	// Invert the symbol table for labelling.
	labels := map[uint64][]string{}
	for name, addr := range p.Symbols {
		labels[addr] = append(labels[addr], name)
	}
	for addr := range labels {
		sort.Strings(labels[addr])
	}
	for i, ins := range p.Code {
		addr := p.CodeBase + uint64(i)*isa.WordSize
		for _, l := range labels[addr] {
			fmt.Printf("%s:\n", l)
		}
		fmt.Printf("  %#08x  %s\n", addr, ins)
	}
	if len(p.Data) > 0 {
		fmt.Println()
		for _, seg := range p.Data {
			fmt.Printf("  data %#08x  %d bytes\n", seg.Base, len(seg.Bytes))
		}
	}
	return nil
}

func cmdMix(args []string) error {
	fs := flag.NewFlagSet("mix", flag.ExitOnError)
	budget := fs.Int64("budget", 10_000_000, "instruction budget")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("mix: need exactly one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	// Execute and histogram dynamic opcodes by sampling the PC stream.
	hist := map[string]int64{}
	var total int64
	cpu := vm.New(p, trace.SinkFunc(func(r trace.Ref) {
		if r.Kind != trace.Ifetch {
			return
		}
		if ins, ok := p.InstrAt(r.Addr); ok {
			hist[ins.Op.String()]++
			total++
		}
	}))
	if err := cpu.Run(*budget); err != nil && err != vm.ErrBudget {
		return err
	}
	type row struct {
		op string
		n  int64
	}
	rows := make([]row, 0, len(hist))
	for op, n := range hist {
		rows = append(rows, row{op, n})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	fmt.Printf("dynamic instruction mix (%d instructions):\n", total)
	for _, r := range rows {
		fmt.Printf("  %-8s %10d  %5.1f%%\n", r.op, r.n, 100*float64(r.n)/float64(total))
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	budget := fs.Int64("budget", 10_000_000, "instruction budget")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if fs.NArg() != 1 || *out == "" {
		return fmt.Errorf("trace: need -o out.trc and one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	if _, err := vm.RunProgram(p, w, *budget); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d references (%d bytes, %.2f bytes/ref) to %s\n",
		w.Count(), info.Size(), float64(info.Size())/float64(w.Count()), *out)
	return nil
}

// cmdDis disassembles an image, source (assembled first) or a
// registered workload back to canonical assembly via internal/dis;
// -roundtrip also proves the output reassembles byte-identical.
func cmdDis(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dis", flag.ContinueOnError)
	wl := fs.String("workload", "", "disassemble a registered workload instead of a file")
	out := fs.String("o", "", "output assembly file (default stdout)")
	roundtrip := fs.Bool("roundtrip", false, "verify the output reassembles byte-identical")
	list := fs.Bool("list", false, "print registered workload names and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, w := range workload.All() {
			if _, err := fmt.Fprintln(stdout, w.Name); err != nil {
				return err
			}
		}
		return nil
	}
	var p *isa.Program
	switch {
	case *wl != "" && fs.NArg() != 0:
		return fmt.Errorf("dis: -workload and a file argument are mutually exclusive")
	case *wl != "":
		w, err := workload.ByName(*wl)
		if err != nil {
			return err
		}
		p = w.Build()
	case fs.NArg() == 1:
		var err error
		if p, err = loadProgram(fs.Arg(0)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("dis: need one file argument or -workload NAME")
	}
	src, err := dis.Disassemble(p)
	if err != nil {
		return err
	}
	if *roundtrip {
		if err := dis.RoundTrip(p); err != nil {
			return err
		}
	}
	if *out != "" {
		return os.WriteFile(*out, []byte(src), 0o644)
	}
	_, err = io.WriteString(stdout, src)
	return err
}

// cacheSpecs collects repeated -cache flags.
type cacheSpecs []string

func (c *cacheSpecs) String() string     { return strings.Join(*c, ",") }
func (c *cacheSpecs) Set(s string) error { *c = append(*c, s); return nil }

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var specs cacheSpecs
	fs.Var(&specs, "cache", "cache spec SIZE:LINE:WAYS or 'proposed' (repeatable)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: need exactly one trace file")
	}
	if len(specs) == 0 {
		specs = cacheSpecs{"proposed", "16384:32:1", "16384:32:2"}
	}

	caches := make(cache.Replay, 0, len(specs))
	for _, s := range specs {
		c, err := parseCacheSpec(s)
		if err != nil {
			return err
		}
		caches = append(caches, c)
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	n, err := r.Replay(caches)
	if err != nil {
		return err
	}
	// Every cache sees every load and store.
	fmt.Printf("replayed %d references (%d data)\n", n, caches[0].Stats().Data().Total)
	for _, c := range caches {
		s := c.Stats()
		fmt.Printf("  %-28s  load %6.3f%%  store %6.3f%%  total %6.3f%%\n",
			c.Name(), s.Load.Percent(), s.Store.Percent(), s.Data().Percent())
	}
	return nil
}

// maxCacheLines bounds -cache geometries by line count, which is what a
// simulated cache costs in host memory: at most 40 B per line (tag state
// and set headers), allocated at construction. The paper's caches hold
// at most 256 KB.
const maxCacheLines = 1 << 20

// parseCacheSpec validates a -cache flag completely at parse time so
// a bad spec is a CLI error with a precise message, never a panic or a
// silently degenerate geometry deep inside the replay loop.
func parseCacheSpec(s string) (cache.Cache, error) {
	if s == "proposed" {
		return cache.NewWithVictim(core.Proposed().DCache()), nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad -cache spec %q: want SIZE:LINE:WAYS or 'proposed'", s)
	}
	size, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil || size == 0 {
		return nil, fmt.Errorf("bad -cache spec %q: size %q is not a positive integer", s, parts[0])
	}
	line, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil || line == 0 {
		return nil, fmt.Errorf("bad -cache spec %q: line %q is not a positive integer", s, parts[1])
	}
	ways, err := strconv.Atoi(parts[2])
	if err != nil || ways < 1 {
		return nil, fmt.Errorf("bad -cache spec %q: ways %q is not a positive integer", s, parts[2])
	}
	if line&(line-1) != 0 {
		return nil, fmt.Errorf("bad -cache spec %q: line size %d is not a power of two", s, line)
	}
	if line > size {
		return nil, fmt.Errorf("bad -cache spec %q: line size %d exceeds cache size %d", s, line, size)
	}
	if size/line > maxCacheLines {
		return nil, fmt.Errorf("bad -cache spec %q: %d lines exceed the limit of %d", s, size/line, maxCacheLines)
	}
	// Bound ways before multiplying so line*ways cannot overflow.
	if uint64(ways) > size/line {
		return nil, fmt.Errorf("bad -cache spec %q: %d ways needs %d lines but the cache holds only %d",
			s, ways, ways, size/line)
	}
	if size%(line*uint64(ways)) != 0 {
		return nil, fmt.Errorf("bad -cache spec %q: size %d not divisible by line %d × ways %d",
			s, size, line, ways)
	}
	if sets := size / (line * uint64(ways)); sets&(sets-1) != 0 {
		return nil, fmt.Errorf("bad -cache spec %q: derived set count %d is not a power of two", s, sets)
	}
	name := fmt.Sprintf("%dKB %d-way %dB", size>>10, ways, line)
	return cache.NewSetAssoc(name, size, line, ways), nil
}
