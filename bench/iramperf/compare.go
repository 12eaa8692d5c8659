package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchFile is the part of BENCHMARK.json compare applies: each
// metric's direction and, for end-to-end metrics, its regression bound
// as a share of the base median.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBench(path string) (map[string]benchMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := map[string]benchMetric{}
	for _, x := range append(f.EndToEnd, f.PerLayer...) {
		m[x.Name] = x
	}
	return m, nil
}

// loadRecords reads the records iramperf -out appended to path and
// groups each metric's values by workload, in file order.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sets := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var o outcome
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if sets[o.Workload] == nil {
			sets[o.Workload] = map[string][]float64{}
		}
		for name, m := range o.Metrics {
			sets[o.Workload][name] = append(sets[o.Workload][name], m.Value)
		}
	}
	return sets, sc.Err()
}

// Verdicts of a comparison.
const (
	better     = "better"
	worse      = "worse"
	same       = "same"
	unresolved = "unresolved"
)

// verdict compares the change's runs b with the base's runs a for one
// metric. Run i of each side forms a pair.
//
//   - If the base's own quartile spread, as a share of its median, is
//     wider than the bound, the metric is unresolved — unless every
//     change run beats every base run.
//   - better: the change wins at least 9 of 10 pairs (ties count for
//     neither) and its median beats the base median by more than the
//     base's quartile spread.
//   - worse: the change's median is worse than the base's by more than
//     the bound; a metric without a bound is worse by the mirror of the
//     better rule.
//   - same: neither.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	beats := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	iqr := q3 - q1
	pairs := min(len(a), len(b))
	var wins, losses int
	for i := 0; i < pairs; i++ {
		switch {
		case beats(b[i], a[i]):
			wins++
		case beats(a[i], b[i]):
			losses++
		}
	}
	if bound > 0 && iqr/math.Abs(ma) > bound {
		for _, x := range b {
			for _, y := range a {
				if !beats(x, y) {
					return unresolved
				}
			}
		}
		return better
	}
	moved := math.Abs(mb-ma) > iqr
	worsening := (mb - ma) / math.Abs(ma)
	if higherBetter {
		worsening = -worsening
	}
	switch {
	case pairs > 0 && wins*10 >= pairs*9 && beats(mb, ma) && moved:
		return better
	case bound > 0 && worsening > bound:
		return worse
	case bound == 0 && pairs > 0 && losses*10 >= pairs*9 && beats(ma, mb) && moved:
		return worse
	}
	return same
}

// comparison is one (workload, metric) row of compare's report.
type comparison struct {
	workload, metric string
	m                benchMetric
	a, b             []float64
	verdict          string
}

// compareSets pairs every (workload, metric) present on both sides.
func compareSets(bench map[string]benchMetric, a, b map[string]map[string][]float64) []comparison {
	var rows []comparison
	for w, am := range a {
		for name, av := range am {
			bv, ok := b[w][name]
			m, known := bench[name]
			if !ok || !known {
				continue
			}
			rows = append(rows, comparison{workload: w, metric: name, m: m, a: av, b: bv,
				verdict: verdict(av, bv, m.Better == "higher", m.Bound)})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})
	return rows
}

func cmdCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare wants two record files (base, change), got %d", fs.NArg())
	}
	bench, err := loadBench(*benchPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := compareSets(bench, a, b)
	fmt.Fprintf(w, "%-17s %-30s %-9s %-32s %-32s %8s %6s  %s\n",
		"workload", "metric", "unit", "base median [q1 q3] n", "change median [q1 q3] n", "change", "bound", "verdict")
	var regressions int
	for _, r := range rows {
		side := func(xs []float64) string {
			q1, m, q3 := quartiles(xs)
			return fmt.Sprintf("%.4g [%.4g %.4g] %d", m, q1, q3, len(xs))
		}
		bound := "-"
		if r.m.Bound > 0 {
			bound = fmt.Sprintf("%.2f", r.m.Bound)
		}
		fmt.Fprintf(w, "%-17s %-30s %-9s %-32s %-32s %+7.1f%% %6s  %s\n", r.workload, r.metric, r.m.Unit,
			side(r.a), side(r.b), 100*(median(r.b)/median(r.a)-1), bound, r.verdict)
		if r.verdict == worse && r.m.Bound > 0 {
			regressions++
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d end-to-end metric(s) worse than their bound", regressions)
	}
	return nil
}
