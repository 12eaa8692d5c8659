package experiments

import (
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/obs"
	"repro/internal/report"
)

func TestAblateLineSize(t *testing.T) {
	r := run[*LineSizeResult](t, "ablate-linesize", topts, nil)
	get := func(bench string, line int) float64 {
		for _, row := range r.Rows {
			if row.Bench == bench && row.LineBytes == line {
				return row.MissPct
			}
		}
		t.Fatalf("missing %s/%d", bench, line)
		return 0
	}
	// hydro2d: long lines are pure prefetch (Section 5.3).
	if get("104.hydro2d", 512) >= get("104.hydro2d", 32) {
		t.Error("hydro2d should improve with 512 B lines")
	}
	// tomcatv: long lines collapse the set count and conflicts explode.
	if get("101.tomcatv", 512) <= get("101.tomcatv", 64) {
		t.Error("tomcatv should degrade with 512 B lines (16 sets)")
	}
	if rendered(r.Table()) == "" {
		t.Error("empty table")
	}
}

func TestAblateVictimSize(t *testing.T) {
	r := run[*VictimSizeResult](t, "ablate-victim", topts, nil)
	get := func(bench string, entries int) float64 {
		for _, row := range r.Rows {
			if row.Bench == bench && row.Entries == entries {
				return row.MissPct
			}
		}
		t.Fatalf("missing %s/%d", bench, entries)
		return 0
	}
	// The paper's 16 entries capture the bulk of the benefit: 16 must
	// beat none by a lot, and 64 must add little over 16.
	none := get("101.tomcatv", 0)
	sixteen := get("101.tomcatv", 16)
	sixtyFour := get("101.tomcatv", 64)
	if sixteen > none/3 {
		t.Errorf("16-entry victim too weak: %.2f%% vs %.2f%%", sixteen, none)
	}
	if sixteen-sixtyFour > none/10 {
		t.Errorf("64 entries add too much over 16: %.2f%% vs %.2f%%", sixtyFour, sixteen)
	}
}

func TestAblateCoherenceUnit(t *testing.T) {
	r := run[*UnitResult](t, "ablate-unit", topts, nil)
	get := func(bench string, unit uint64) uint64 {
		for _, row := range r.Rows {
			if row.Bench == bench && row.UnitBytes == unit {
				return row.Cycles
			}
		}
		t.Fatalf("missing %s/%d", bench, unit)
		return 0
	}
	// The false-sharing microbenchmark must blow up with 512 B units.
	small := get("falseshare (micro)", 32)
	big := get("falseshare (micro)", 512)
	if big < 10*small {
		t.Errorf("false sharing not visible: 32B=%d, 512B=%d", small, big)
	}
}

// TestAblateUnitMicroPublishes: the false-sharing microbenchmark
// publishes its machines' protocol and coordinator statistics, as
// runSplash does for every SPLASH run.
func TestAblateUnitMicroPublishes(t *testing.T) {
	o := topts
	o.Obs = obs.NewRegistry()
	if _, err := ablateUnitMicro(o); err != nil {
		t.Fatal(err)
	}
	// Three runs of four processors, 400 reads and 400 writes each.
	if got, want := o.Obs.Counter("coherence", "accesses").Value(), int64(3*4*800); got != want {
		t.Errorf("coherence/accesses = %d, want %d", got, want)
	}
	if got := o.Obs.Counter("mpsim", "grants").Value(); got == 0 {
		t.Error("mpsim/grants = 0: the coordinator statistics were not published")
	}
}

func TestAblateScoreboard(t *testing.T) {
	ms := NewMeasurementSet(topts)
	r := run[*ScoreboardResult](t, "ablate-scoreboard", topts, ms)
	get := func(bench string, rate float64) float64 {
		for _, row := range r.Rows {
			if row.Bench == bench && row.Rate == rate {
				return row.MemCPI
			}
		}
		t.Fatalf("missing %s/%v", bench, rate)
		return 0
	}
	// More scoreboarding (lower rate) must not increase memory CPI.
	if get("126.gcc", 0.25) > get("126.gcc", 0)+0.005 {
		t.Error("aggressive scoreboarding should reduce memory CPI")
	}
}

func TestAblateINCAssociativity(t *testing.T) {
	r := run[*INCResult](t, "ablate-inc", topts, nil)
	var dm, sevenWay int64
	for _, row := range r.Rows {
		if row.Bench != "WATER" {
			continue
		}
		switch row.Ways {
		case 1:
			dm = row.RemoteLoads
		case 7:
			sevenWay = row.RemoteLoads
		}
	}
	if sevenWay >= dm {
		t.Errorf("7-way INC should cut remote loads: DM=%d, 7-way=%d", dm, sevenWay)
	}
}

func TestAblateEngines(t *testing.T) {
	r := run[*EngineResult](t, "ablate-engines", topts, nil)
	get := func(bench string, engines int) EngineRow {
		for _, row := range r.Rows {
			if row.Bench == bench && row.Engines == engines {
				return row
			}
		}
		t.Fatalf("missing %s/%d", bench, engines)
		return EngineRow{}
	}
	one := get("MP3D", 1)
	two := get("MP3D", 2)
	four := get("MP3D", 4)
	if one.QueueCycles < two.QueueCycles || two.QueueCycles < four.QueueCycles {
		t.Errorf("engine queueing not monotone: %d / %d / %d",
			one.QueueCycles, two.QueueCycles, four.QueueCycles)
	}
	if one.Cycles < two.Cycles {
		t.Errorf("one engine should not beat two: %d vs %d", one.Cycles, two.Cycles)
	}
}

func TestAblateJouppi(t *testing.T) {
	r := run[*JouppiResult](t, "ablate-jouppi", topts, nil)
	for _, row := range r.Rows {
		switch row.Bench {
		case "101.tomcatv", "102.swim":
			if row.VictimPct >= row.StreamPct {
				t.Errorf("%s: victim %.2f%% should beat stream %.2f%%",
					row.Bench, row.VictimPct, row.StreamPct)
			}
		}
		if row.VictimPct > row.PlainPct+0.01 {
			t.Errorf("%s: victim worse than plain", row.Bench)
		}
	}
}

// TestAblationTablesRender smoke-renders every ablation table so a
// formatting regression cannot slip through unrendered.
func TestAblationTablesRender(t *testing.T) {
	ms := NewMeasurementSet(topts)
	for _, name := range []string{"ablate-victim", "ablate-unit", "ablate-scoreboard", "ablate-inc", "ablate-engines", "ablate-jouppi"} {
		if rendered(run[interface{ Table() *report.Table }](t, name, topts, ms).Table()) == "" {
			t.Errorf("%s: empty table", name)
		}
	}
}

func TestSCOMAEndToEnd(t *testing.T) {
	r := run[*SCOMAResult](t, "scoma", topts, nil)
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	out := rendered(r.Table())
	for _, b := range []string{"LU", "WATER", "S-COMA"} {
		if !strings.Contains(out, b) {
			t.Errorf("scoma table missing %q", b)
		}
	}
	// S-COMA should be competitive with CC-NUMA+victim across the board
	// (within 2x either way; its wins are on the INC-bound codes).
	for _, row := range r.Rows {
		ccn := float64(row.Cycles[coherence.IntegratedVictim])
		sc := float64(row.Cycles[coherence.SimpleCOMA])
		if sc > 2*ccn || ccn > 2*sc {
			t.Errorf("%s: S-COMA %v vs CC-NUMA %v out of band", row.Bench, sc, ccn)
		}
	}
}
