package main

import (
	"bytes"
	"context"
	"os"
	"testing"

	"repro/internal/runner"
)

// TestTamperedGoldenFailsEveryOperation runs the cache-figure request
// at full fidelity, checks it against the repository transcript, and
// then against a copy with one digit changed: the tampered copy must
// fail every operation of the run (failed/attempted = 1).
func TestTamperedGoldenFailsEveryOperation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig7 and fig8 at full fidelity")
	}
	s, err := specByName("cachefigs-live")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../testdata/full_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runner.Run(context.Background(), s.req, runner.Config{Workers: workers, Out: &out}); err != nil {
		t.Fatal(err)
	}
	want := out.Bytes()

	o := &outcome{Attempted: 7}
	o.judge(s, 1, want, want, golden)
	if o.Failed != 0 {
		t.Fatalf("untouched golden: %d of %d failed: %s", o.Failed, o.Attempted, o.Note)
	}

	// Change the first miss rate of the 126.gcc row.
	row := bytes.Index(golden, want) + bytes.Index(want, []byte("126.gcc")) + len("126.gcc")
	digit := row + bytes.IndexAny(golden[row:], "0123456789")
	tampered := append([]byte(nil), golden...)
	tampered[digit] = '0' + (tampered[digit]-'0'+1)%10
	o.judge(s, 1, want, want, tampered)
	if o.Failed != o.Attempted {
		t.Errorf("tampered golden: fail_frac = %d/%d, want 1", o.Failed, o.Attempted)
	}

	// The golden applies at seed 1 only; other seeds rest on the
	// reference run, and a reference mismatch fails everything too.
	o = &outcome{Attempted: 3}
	o.judge(s, 2, want, want, tampered)
	if o.Failed != 0 {
		t.Errorf("seed 2 judged against the golden: %s", o.Note)
	}
	o.judge(s, 2, want, append([]byte("x"), want...), golden)
	if o.Failed != o.Attempted {
		t.Errorf("reference mismatch: fail_frac = %d/%d, want 1", o.Failed, o.Attempted)
	}
}
