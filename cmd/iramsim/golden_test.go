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
// cpumodel, coherence/mpsim, experiments, CLI rendering) — then every
// experiment that replays its trace into one simulated cache per
// configuration (the line-size, victim and Jouppi ablations and the
// self-test) and the two memory-hierarchy studies (Figure 2, Table 1).
var goldenNames = []string{"spec", "fig7", "fig8", "table3", "realcpi", "fig910", "fig13",
	"ablate-linesize", "ablate-victim", "ablate-jouppi", "selftest", "fig2", "table1"}

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

// machineFlag resolves a -machine file the way the flag does: request
// reads it, and the runner's Request validation decodes and checks it.
func machineFlag(path string) (core.Device, error) {
	req, err := request(cliConfig{machine: path})
	if err != nil {
		return core.Device{}, err
	}
	req.Experiments = []string{"spec"}
	if err := req.Validate(); err != nil {
		return core.Device{}, err
	}
	opts, err := req.Options()
	if err != nil {
		return core.Device{}, err
	}
	return *opts.Machine, nil
}

// TestMachineFlag drives the -machine path end to end: the example
// 32-bank / 256 B-column device loads, validates, and runs the cache
// figures, the GSPN net, and a SPLASH multiprocessor figure, producing
// output that names the configured device and differs from the paper
// default where it should.
func TestMachineFlag(t *testing.T) {
	dev, err := machineFlag(filepath.Join("..", "..", "examples", "machine-32bank.json"))
	if err != nil {
		t.Fatalf("-machine: %v", err)
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

	// The fabric study builds its links from the device.
	fast, err := core.FromJSON([]byte(`{"LinkGbit": 5}`))
	if err != nil {
		t.Fatalf("5 Gbit/s device: %v", err)
	}
	fastOpts := quickOpts()
	fastOpts.Machine = &fast
	if bytes.Equal(render(defOpts, "fabric"), render(fastOpts, "fabric")) {
		t.Error("fabric output identical for 2.5 and 5 Gbit/s links; -machine is not reaching the fabric study")
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
	for _, c := range []struct{ name, body string }{
		// 32 banks but I-cache left at the 16-bank default: violates
		// the one-column-buffer-per-bank identity.
		{"bad", `{"DRAM": {"Banks": 32}}`},
		{"unknown", `{"NoSuchField": 1}`},
		// A D-cache of no ways balances its buffer count, but no cache
		// simulator can build it.
		{"zero-ways", `{"DCacheWays": 0, "DCacheBytes": 0, "DRAM": {"BuffersPerBank": 1}}`},
		// The GSPN times precharge with a deterministic transition,
		// which needs a positive delay.
		{"zero-precharge", `{"DRAM": {"PrechargeCycles": 0}}`},
	} {
		path := filepath.Join(dir, c.name+".json")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := machineFlag(path); err == nil || !strings.Contains(err.Error(), "machine config") {
			t.Errorf("%s machine config: err = %v, want a machine config error", c.name, err)
		}
	}
	if _, err := machineFlag(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing machine config accepted")
	}
}
