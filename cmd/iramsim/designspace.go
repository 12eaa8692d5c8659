package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/runner"
)

// parseAxis parses one designspace axis flag: comma-separated terms,
// each a plain integer, an arithmetic range lo..hi:step, or a geometric
// range lo..hi:*k (e.g. "8..128:8", "256..4096:*2", "0,8,16").
// Duplicate values are dropped (first occurrence wins) so the search
// lattice stays a proper cross-product. An axis whose terms expand to
// more than runner.MaxAxisValues values, duplicates included, is an
// error.
func parseAxis(name, spec string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	n := 0 // values expanded so far, duplicates included
	add := func(v int) {
		n++
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	tooMany := func(count uint64) error {
		return fmt.Errorf("-%s: axis %q has %d values, more than %d", name, spec, count, runner.MaxAxisValues)
	}
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		lo, hi, step, geo, err := parseRange(term)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", name, err)
		}
		switch {
		case !geo && step == 0: // plain integer
			add(lo)
		case geo: // at most 63 values
			for v := lo; v <= hi; v *= step {
				add(v)
				if v > hi/step { // overflow guard
					break
				}
			}
		default:
			// Count the term before expanding it; (hi-lo)/step cannot
			// overflow where hi-lo+1 can.
			if count := uint64(n) + uint64((hi-lo)/step) + 1; count > runner.MaxAxisValues {
				return nil, tooMany(count)
			}
			for v := lo; v <= hi; v += step {
				add(v)
				if v > hi-step { // overflow guard
					break
				}
			}
		}
		if n > runner.MaxAxisValues {
			return nil, tooMany(uint64(n))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: empty axis %q", name, spec)
	}
	return out, nil
}

// parseRange splits one axis term. A plain integer returns step 0.
func parseRange(term string) (lo, hi, step int, geo bool, err error) {
	i := strings.Index(term, "..")
	if i < 0 {
		v, err := strconv.Atoi(term)
		if err != nil || v < 0 {
			return 0, 0, 0, false, fmt.Errorf("bad axis value %q", term)
		}
		return v, 0, 0, false, nil
	}
	rest := term[i+2:]
	j := strings.Index(rest, ":")
	if j < 0 {
		return 0, 0, 0, false, fmt.Errorf("range %q needs a :step or :*k suffix", term)
	}
	lo, err = strconv.Atoi(term[:i])
	if err != nil || lo < 0 {
		return 0, 0, 0, false, fmt.Errorf("bad range start in %q", term)
	}
	hi, err = strconv.Atoi(rest[:j])
	if err != nil || hi < lo {
		return 0, 0, 0, false, fmt.Errorf("bad range end in %q", term)
	}
	s := rest[j+1:]
	if strings.HasPrefix(s, "*") {
		geo = true
		s = s[1:]
	}
	step, err = strconv.Atoi(s)
	if err != nil || (geo && step < 2) || (!geo && step < 1) || lo == 0 && geo {
		return 0, 0, 0, false, fmt.Errorf("bad range step in %q", term)
	}
	return lo, hi, step, geo, nil
}
