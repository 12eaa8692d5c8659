package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

func TestParseAxis(t *testing.T) {
	cases := []struct {
		spec string
		want []int
	}{
		{"16", []int{16}},
		{"0,8,16", []int{0, 8, 16}},
		{"8..32:8", []int{8, 16, 24, 32}},
		{"8..33:8", []int{8, 16, 24, 32}},
		{"256..4096:*2", []int{256, 512, 1024, 2048, 4096}},
		{"64..4096:*4", []int{64, 256, 1024, 4096}},
		{"4,2..8:2", []int{4, 2, 6, 8}}, // duplicates dropped, first wins
		{" 8 , 16 ", []int{8, 16}},
		{"2..2:1", []int{2}},
		// hi+step overflows: the range must still end.
		{"9223372036854775800..9223372036854775807:4", []int{9223372036854775800, 9223372036854775804}},
	}
	for _, c := range cases {
		var got []int
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			got, err = parseAxis("ds-banks", c.spec)
		}()
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			// A parse that never returns keeps growing its axis, so end
			// the test binary instead of leaving it beside later tests.
			panic(fmt.Sprintf("parseAxis(%q) did not return", c.spec))
		}
		if err != nil {
			t.Errorf("parseAxis(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseAxis(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestParseAxisErrors(t *testing.T) {
	for _, spec := range []string{
		"",                         // empty axis
		"x",                        // not a number
		"-4",                       // negative
		"8..4:2",                   // end before start
		"8..16",                    // missing step
		"8..16:0",                  // zero step
		"8..16:*1",                 // geometric step must be >= 2
		"0..16:*2",                 // geometric from zero never terminates
		"8..16:-2",                 // negative step
		"1..100000:1",              // over the axis cap
		"0..4000:1,5000..9000:1",   // over the cap only together
		"0..9223372036854775807:1", // hi-lo+1 overflows
	} {
		if _, err := parseAxis("ds-banks", spec); err == nil {
			t.Errorf("parseAxis(%q) accepted, want error", spec)
		} else if !strings.Contains(err.Error(), "ds-banks") {
			t.Errorf("parseAxis(%q) error %q does not name the flag", spec, err)
		}
	}
}

// FuzzParseAxis: any flag value parses to an error or to at most
// runner.MaxAxisValues non-negative values, without panicking.
func FuzzParseAxis(f *testing.F) {
	for _, seed := range []string{"16", "0,8,16", "8..128:8", "256..4096:*2", "4,2..8:2",
		"1..100000:1", "0..9223372036854775807:1", "1..9223372036854775807:*2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		vals, err := parseAxis("ds-banks", spec)
		if err != nil {
			return
		}
		if len(vals) > runner.MaxAxisValues {
			t.Fatalf("parseAxis(%q) returned %d values, cap %d", spec, len(vals), runner.MaxAxisValues)
		}
		for _, v := range vals {
			if v < 0 {
				t.Fatalf("parseAxis(%q) returned negative value %d", spec, v)
			}
		}
	})
}
