package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/memsys"
	"repro/internal/mpsim"
	"repro/internal/paperref"
)

// TestConfigEquivalence pins every parameter the machine-description
// refactor now derives from core.Proposed()/core.Reference() to the
// literal values the simulation paths hard-coded before the refactor.
// If a derivation formula drifts, this fails before the (slow) golden
// output diff does, and names the exact parameter.
func TestConfigEquivalence(t *testing.T) {
	prop, ref := core.Proposed(), core.Reference()

	// GSPN system configurations (Tables 3/4, Figures 11/12).
	wantInt := cpumodel.SystemConfig{
		Name: "integrated", Banks: 16, MemCycles: 6, PrechargeCycles: 3,
		ScoreboardRate: 1,
	}
	if got := cpumodel.ConfigFor(prop); got != wantInt {
		t.Errorf("ConfigFor(Proposed) = %+v, want pre-refactor literals %+v", got, wantInt)
	}
	wantRef := cpumodel.SystemConfig{
		Name: "reference", Banks: 2, MemCycles: 12, PrechargeCycles: 6,
		HasL2: true, L2Cycles: 6, ScoreboardRate: 1,
	}
	if got := cpumodel.ConfigFor(ref); got != wantRef {
		t.Errorf("ConfigFor(Reference) = %+v, want pre-refactor literals %+v", got, wantRef)
	}

	// Multiprocessor latencies (every cell of the paper's Table 6, plus
	// the three the table leaves implicit) and synchronisation costs.
	// CacheHit is both the proposed node's column-buffer hit and the
	// reference node's FLC hit.
	t6 := paperref.Table6
	lat := coherence.LatenciesFor(prop)
	wantLat := coherence.Latencies{
		CacheHit: uint64(t6.ColumnBufferHit), FlitCycles: 5, VictimHit: uint64(t6.VictimHit),
		LocalMem: uint64(t6.LocalMemory), INCExtra: 1, SLCHit: uint64(t6.SLCHit), LocalCold: 12,
		RemoteLoad: uint64(t6.RemoteLoad), InvalRT: uint64(t6.InvalidationRT),
	}
	if lat != wantLat {
		t.Errorf("LatenciesFor(Proposed) = %+v, want Table 6 %+v", lat, wantLat)
	}
	if lat.CacheHit != uint64(t6.FLCHit) {
		t.Errorf("LatenciesFor(Proposed).CacheHit = %d, want Table 6's FLC hit %d", lat.CacheHit, t6.FLCHit)
	}
	wantSync := mpsim.SyncCosts{LockAcquire: 80, LockHandoff: 80, Barrier: 80}
	if got := lat.SyncCosts(); got != wantSync {
		t.Errorf("SyncCosts from device = %+v, want Table 6 round trips %+v", got, wantSync)
	}

	// DRAM timing: 6 cycles at 200 MHz is the paper's 30 ns.
	if got := prop.DRAM.AccessNanos(); got != 30 {
		t.Errorf("Proposed DRAM access = %g ns, want 30", got)
	}

	// WithOrganisation at the paper's own point is the identity.
	if got := prop.WithOrganisation(16, 512, 16, 2); !reflect.DeepEqual(got, prop) {
		t.Errorf("WithOrganisation(16,512,16,2) changed the paper device:\n got %+v\nwant %+v", got, prop)
	}

	// The Figure 2 hierarchy of the device (the workstation ones are
	// pinned by the fig2 and table1 goldens).
	if h := memsys.IntegratedFrom(prop); h.MemoryNs != 30 || h.ClockMHz != 200 {
		t.Errorf("IntegratedFrom(Proposed): MemoryNs=%g ClockMHz=%g, want 30/200",
			h.MemoryNs, h.ClockMHz)
	}

	// Both devices must self-validate, and Options.Device must default
	// to the paper's machine.
	if err := prop.Validate(); err != nil {
		t.Errorf("Proposed().Validate(): %v", err)
	}
	if err := ref.Validate(); err != nil {
		t.Errorf("Reference().Validate(): %v", err)
	}
	if got := (Options{}).Device(); !reflect.DeepEqual(got, prop) {
		t.Errorf("Options.Device() default is not core.Proposed()")
	}
}

// TestDesignspaceDeterministic: the designspace sweep filters invalid
// geometries at enumeration time and produces byte-identical rendered
// output across repeated runs.
func TestDesignspaceDeterministic(t *testing.T) {
	o := Quick()
	o.Budget = 50_000
	o.GSPNInstr = 2_000
	o.DSBanks = []int{8, 16}
	o.DSColumns = []int{512}
	o.DSVictims = []int{0, 16}
	render := func() []byte {
		res := runJob(t, DesignspaceJob(o, nil), 1, nil).(*DesignspaceResult)
		if want := 2 * 2 * len(designspaceBenches); len(res.Rows) != want {
			t.Fatalf("designspace rows = %d, want %d", len(res.Rows), want)
		}
		var buf bytes.Buffer
		res.Table().Render(&buf)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Errorf("two designspace runs differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestDesignspaceFiltersInvalid: a geometry core.Device.Validate
// rejects must be dropped from the lattice, not run. Units are per
// (column family, bench), so an invalid point shrinks the result, not
// the unit list; a lattice with no valid point is an empty search.
func TestDesignspaceFiltersInvalid(t *testing.T) {
	kept := DesignPoint{Banks: 16, ColumnBytes: 512, Ways: 2}
	for _, c := range []struct {
		name          string
		ways, victims []int
		want          []DesignPoint
	}{
		{"victim=3", nil, []int{0, 3}, []DesignPoint{kept}}, // 512/3 is not an integer line size
		{"ways=0", []int{0, 2}, []int{0}, []DesignPoint{kept}},
		{"only ways=0", []int{0}, []int{0}, nil},
	} {
		o := Quick()
		o.Budget = 50_000
		o.GSPNInstr = 2_000
		o.DSBanks = []int{16}
		o.DSColumns = []int{512}
		o.DSWays = c.ways
		o.DSVictims = c.victims
		// Every case keeps at most one point, so at most the one
		// 512 B column family.
		j := DesignspaceJob(o, nil)
		if want := len(c.want) * len(designspaceBenches); len(j.Units) != want {
			t.Errorf("%s: designspace built %d units, want %d (column families x benches)",
				c.name, len(j.Units), want)
		}
		if res := runJob(t, j, 1, nil).(*DesignspaceResult); !reflect.DeepEqual(res.Points, c.want) {
			t.Errorf("%s: lattice kept %v, want %v", c.name, res.Points, c.want)
		}
	}
}
