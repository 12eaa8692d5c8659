package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/stats"
	"repro/internal/sweep"
)

// progress renders the sweep's unit events, the engine's only per-unit
// report: one line per unit and a closing summary on out, and, with
// -trace, one line per unit in the trace log.
type progress struct {
	out     io.Writer // timing-dependent, so never the experiment output
	trace   io.Writer // the -trace log; nil without the flag
	workers int       // the -j pool size, for the summary
	start   time.Time // trace start_us counts from here
	total   int
	units   stats.Running // seconds of the units that ran
}

func newProgress(out, trace io.Writer, workers int) *progress {
	return &progress{out: out, trace: trace, workers: workers, start: time.Now()}
}

// unit is the run's runner.Config.OnUnit.
func (p *progress) unit(ev sweep.UnitEvent) {
	p.total = ev.Total
	kind := "unit_done"
	switch {
	case ev.Skipped:
		kind = "unit_skipped"
		fmt.Fprintf(p.out, "sweep: [%d/%d] %s skipped\n", ev.Completed, ev.Total, ev.Unit)
	case ev.Err != nil:
		kind = "unit_failed"
		fmt.Fprintf(p.out, "sweep: [%d/%d] %s failed: %v\n", ev.Completed, ev.Total, ev.Unit, ev.Err)
	default:
		p.units.Add(ev.Elapsed.Seconds())
		fmt.Fprintf(p.out, "sweep: [%d/%d] %s (%.2fs)\n", ev.Completed, ev.Total, ev.Unit, ev.Elapsed.Seconds())
	}
	if p.trace != nil {
		fmt.Fprintf(p.trace, "%d worker-%d %s %s start_us=%d dur_us=%d\n", ev.Completed, ev.Worker, kind, ev.Unit,
			ev.Start.Sub(p.start).Microseconds(), ev.Elapsed.Microseconds())
	}
}

// summary closes the progress lines of a sweep that succeeded. The
// engine never starts more workers than units, and the last event's
// Total counts every wave's units, so neither does the count here.
func (p *progress) summary() {
	if p.total == 0 {
		return
	}
	fmt.Fprintf(p.out, "sweep: %d units on %d workers in %.2fs (unit mean %.2fs, max %.2fs)\n",
		p.total, max(1, min(p.workers, p.total)), time.Since(p.start).Seconds(), p.units.Mean(), p.units.Max())
}

// createTrace creates the -trace log before the run, so a bad path
// fails before any unit runs. The returned close flushes and closes it.
func createTrace(path string) (io.Writer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	return w, func() error {
		err := w.Flush()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		return nil
	}, nil
}
