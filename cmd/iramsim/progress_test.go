package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// sleepJob builds a job of n units that each sleep d and return 0.
func sleepJob(name string, n int, d time.Duration) sweep.Job {
	units := make([]sweep.Unit, n)
	for i := range units {
		units[i] = sweep.Unit{
			Name: fmt.Sprintf("%s/u%d", name, i),
			Run: func() (interface{}, error) {
				time.Sleep(d)
				return 0, nil
			},
		}
	}
	return sweep.Job{Name: name, Units: units,
		Assemble: func(parts []interface{}) (interface{}, error) { return nil, nil }}
}

// TestProgress: one line per unit plus a summary, rendered from the
// engine's unit events.
func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	p := newProgress(&buf, nil, 2)
	e := &sweep.Engine{Workers: 2, OnUnit: p.unit}
	if err := e.Run(context.Background(), []sweep.Job{sleepJob("p", 3, time.Millisecond)}, nil); err != nil {
		t.Fatal(err)
	}
	p.summary()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d progress lines, want 4:\n%s", len(lines), buf.String())
	}
	for _, l := range lines[:3] {
		if !strings.HasPrefix(l, "sweep: [") {
			t.Errorf("unit line %q", l)
		}
	}
	if !strings.Contains(lines[3], "3 units on 2 workers") {
		t.Errorf("summary line %q", lines[3])
	}
}

// TestProgressUnderFailure: after a unit fails, the [completed/total]
// counter keeps counting — the failed unit prints a "failed" line and
// canceled units print "skipped" lines, so the numbering never skips.
func TestProgressUnderFailure(t *testing.T) {
	boom := errors.New("boom")
	const trailing = 30
	job := sleepJob("f", trailing, time.Millisecond)
	job.Units = append([]sweep.Unit{
		{Name: "f/fail", Run: func() (interface{}, error) { return nil, boom }},
	}, job.Units...)

	var buf bytes.Buffer
	p := newProgress(&buf, nil, 1)
	e := &sweep.Engine{Workers: 1, OnUnit: p.unit}
	if err := e.Run(context.Background(), []sweep.Job{job}, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	out := buf.String()
	total := trailing + 1
	// Every completion number appears exactly once: no gaps in the
	// counter even though most units were canceled.
	for i := 1; i <= total; i++ {
		marker := fmt.Sprintf("[%d/%d]", i, total)
		if strings.Count(out, marker) != 1 {
			t.Errorf("progress counter %s missing or duplicated:\n%s", marker, out)
		}
	}
	if !strings.Contains(out, "f/fail failed: boom") {
		t.Errorf("no failed line for the failing unit:\n%s", out)
	}
	// Cancellation is best-effort, but with 30 slow trailing units on
	// one worker at least one must be skipped after the stop flag lands.
	if !strings.Contains(out, "skipped") {
		t.Errorf("no skipped lines after failure:\n%s", out)
	}
}
