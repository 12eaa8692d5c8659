package experiments

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/splash"
	"repro/internal/sweep"
)

// experiment is one registry row: the name the CLI and the daemon
// accept, whether `iramsim all` runs it, and the builder of its job.
type experiment struct {
	name string
	all  bool
	job  func(Options, *MeasurementSet) sweep.Job
}

// registry is the one list of experiments, in the order `iramsim all`
// runs them; rows without all run only when named. Adding an
// experiment is one builder plus one row.
var registry = []experiment{
	{"spec", true, specJob},
	{"cost", true, costJob},
	{"table1", true, Table1Job},
	{"fig2", true, Fig2Job},
	{"fig7", true, Fig7Job},
	{"fig8", true, Fig8Job},
	{"fig11", true, Fig11Job},
	{"fig12", true, Fig12Job},
	{"table3", true, Table3Job},
	{"table4", true, Table4Job},
	{"banks", true, BanksJob},
	{"mattson", true, MattsonJob},
	{"realcpi", true, RealCPIJob},
	{"fig13", true, SplashJob("fig13", "LU")},
	{"fig14", true, SplashJob("fig14", "MP3D")},
	{"fig15", true, SplashJob("fig15", "OCEAN")},
	{"fig16", true, SplashJob("fig16", "WATER")},
	{"fig17", true, SplashJob("fig17", "PTHOR")},
	{"ablate-linesize", true, AblateLineSizeJob},
	{"ablate-victim", true, AblateVictimSizeJob},
	{"ablate-unit", true, AblateCoherenceUnitJob},
	{"ablate-scoreboard", true, AblateScoreboardJob},
	{"ablate-inc", true, AblateINCAssociativityJob},
	{"ablate-engines", true, AblateEnginesJob},
	{"ablate-jouppi", true, AblateJouppiJob},
	{"scoma", true, SCOMAJob},
	{"fabric", true, fabricJob},
	{"selftest", true, selftestJob},
	{"designspace", false, DesignspaceJob},
	{"workloads", false, workloadsJob},
	{"fig910", false, fig910Job},
}

// JobFor returns the named experiment as a sweep job: an enumerable
// list of independent units plus the assembly step that rebuilds the
// experiment's result in deterministic order.
func JobFor(name string, o Options, ms *MeasurementSet) (sweep.Job, error) {
	for _, e := range registry {
		if e.name == name {
			return e.job(o, ms), nil
		}
	}
	return sweep.Job{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// Known reports whether JobFor accepts name.
func Known(name string) bool {
	for _, e := range registry {
		if e.name == name {
			return true
		}
	}
	return false
}

// Names lists every experiment JobFor accepts, in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// SweepNames lists the experiments `iramsim all` runs, in order.
func SweepNames() []string {
	var names []string
	for _, e := range registry {
		if e.all {
			names = append(names, e.name)
		}
	}
	return names
}

// cached builds a unit whose result the engine may serve from the
// result cache. Its key folds in the codec's schema, so the key and the
// codec that decodes a hit cannot disagree; seed and extra are the
// other key inputs (see keyer.key).
func cached[R any](k keyer, name string, seed int64, c gobCodec[R], run func() (R, error), extra ...string) sweep.Unit {
	u := uncached(name, run)
	u.Key = k.key(name, seed, c.schema(), extra...)
	u.Codec = c
	return u
}

// uncached builds a unit the engine always runs.
func uncached[R any](name string, run func() (R, error)) sweep.Unit {
	return sweep.Unit{Name: name, Run: func() (interface{}, error) { return run() }}
}

// job builds a sweep job whose units each return an R: wrap receives
// the results in unit order and builds the experiment's value.
func job[R any](name string, units []sweep.Unit, wrap func([]R) (interface{}, error)) sweep.Job {
	return sweep.Job{Name: name, Units: units, Assemble: func(parts []interface{}) (interface{}, error) {
		rs := make([]R, len(parts))
		for i, p := range parts {
			rs[i] = p.(R)
		}
		return wrap(rs)
	}}
}

// concat joins per-unit row slices in unit order.
func concat[R any](parts [][]R) []R {
	var rows []R
	for _, p := range parts {
		rows = append(rows, p...)
	}
	return rows
}

// splashSize is the SPLASH data set the options select.
func (o Options) splashSize() splash.Size {
	if o.MPQuick {
		return splash.Quick()
	}
	return splash.Full()
}

// machine builds a procs-node multiprocessor of configuration cfg:
// integrated nodes from dev, reference nodes from core.Reference(), and
// dev's coherence unit.
func machine(dev core.Device, cfg coherence.Config, procs int) *coherence.Machine {
	return coherence.NewConfiguredMachineDevices(cfg, procs,
		uint64(dev.CoherenceUnitBytes), dev, core.Reference())
}
