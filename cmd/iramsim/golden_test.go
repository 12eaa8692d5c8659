package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// goldenNames is the quick-fidelity experiment subset the golden test
// pins: the datasheet, both cache-miss figures, a CPI table, a GSPN
// shape line, and one multiprocessor figure — together they cross every
// layer the machine-description refactor touched (core, workload,
// cpumodel, coherence/mpsim, experiments, CLI rendering).
var goldenNames = []string{"spec", "fig7", "fig8", "table3", "realcpi", "fig910", "fig13"}

// TestQuickGolden locks the default-device output byte-for-byte against
// testdata/quick_golden.txt. Any change to a derivation formula that
// shifts a simulated number fails here with a line diff. To bless an
// intentional change: UPDATE_GOLDEN=1 go test -run TestQuickGolden ./cmd/iramsim
func TestQuickGolden(t *testing.T) {
	got := runJobs(t, goldenNames, quickOpts(), runner.Config{Workers: 1})

	path := filepath.Join("testdata", "quick_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("quick-fidelity output drifted from %s.\n"+
			"If intentional, regenerate with UPDATE_GOLDEN=1 and explain in the commit.\n%s",
			path, firstDiff(want, got))
	}
}

// TestDesignspaceGolden locks the design-space search output — grid
// table, Pareto frontier, and the accounting note proving pass sharing —
// byte-for-byte on a small grid (the default 12-point axes). To bless
// an intentional change:
// UPDATE_GOLDEN=1 go test -run TestDesignspaceGolden ./cmd/iramsim
func TestDesignspaceGolden(t *testing.T) {
	got := runJobs(t, []string{"designspace"}, quickOpts(), runner.Config{Workers: 1})
	if !bytes.Contains(got, []byte("accounting: lattice=12")) {
		t.Fatalf("designspace output missing the accounting note:\n%s", got)
	}

	path := filepath.Join("testdata", "designspace_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("designspace output drifted from %s.\n"+
			"If intentional, regenerate with UPDATE_GOLDEN=1 and explain in the commit.\n%s",
			path, firstDiff(want, got))
	}
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return "line " + itoa(i+1) + ":\n-" + w[i] + "\n+" + g[i]
		}
	}
	return "outputs differ in length: want " + itoa(len(w)) + " lines, got " + itoa(len(g))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestMachineFlag drives the -machine path end to end: the example
// 32-bank / 256 B-column device loads, validates, and runs the cache
// figures, the GSPN net, and a SPLASH multiprocessor figure, producing
// output that names the configured device and differs from the paper
// default where it should.
func TestMachineFlag(t *testing.T) {
	dev, err := core.LoadFile(filepath.Join("..", "..", "examples", "machine-32bank.json"))
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if dev.DRAM.Banks != 32 || dev.DRAM.ColumnBytes != 256 || dev.VictimEntries != 8 {
		t.Fatalf("example device = %d banks, %d B columns, %d victim entries; want 32/256/8",
			dev.DRAM.Banks, dev.DRAM.ColumnBytes, dev.VictimEntries)
	}

	opts := quickOpts()
	opts.Machine = &dev
	out := string(runJobs(t, []string{"spec", "fig7", "fig8", "fig910", "fig13"}, opts, runner.Config{Workers: 1}))
	if !strings.Contains(out, dev.Name) {
		t.Errorf("spec output does not name the configured device %q", dev.Name)
	}
	if !strings.Contains(out, "32 banks") {
		t.Errorf("datasheet does not show the overridden bank count:\n%s", out)
	}

	// The same experiments on the default device must differ: the
	// refactor threads the device through, it doesn't just print it.
	render := func(o experiments.Options, names ...string) []byte {
		t.Helper()
		return runJobs(t, names, o, runner.Config{Workers: 2})
	}
	defOpts := quickOpts()
	for _, name := range []string{"fig7", "ablate-victim", "ablate-unit", "ablate-inc", "ablate-engines", "ablate-jouppi"} {
		if bytes.Equal(render(defOpts, name), render(opts, name)) {
			t.Errorf("%s output identical for default and 32-bank devices; -machine is not reaching the simulators", name)
		}
	}

	// Every ablation runs on a device without a victim cache.
	novic, err := core.FromJSON([]byte(`{"VictimEntries": 0, "VictimLineBytes": 0}`))
	if err != nil {
		t.Fatalf("victimless device: %v", err)
	}
	noOpts := quickOpts()
	noOpts.Machine = &novic
	render(noOpts, "ablate-linesize", "ablate-victim", "ablate-unit", "ablate-scoreboard",
		"ablate-inc", "ablate-engines", "ablate-jouppi")
}

// TestMachineFlagRejectsBadConfig: an invalid geometry must fail at
// load time with the core validation error, not deep in a simulator.
func TestMachineFlagRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	// 32 banks but I-cache left at the 16-bank default: violates the
	// one-column-buffer-per-bank identity.
	if err := os.WriteFile(bad, []byte(`{"DRAM": {"Banks": 32}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadFile(bad); err == nil {
		t.Error("invalid machine config accepted")
	}
	if _, err := core.LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing machine config accepted")
	}
	unknown := filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(`{"NoSuchField": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadFile(unknown); err == nil {
		t.Error("unknown field accepted")
	}
}
