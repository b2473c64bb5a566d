package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// e2eMetric is one end-to-end metric: its unit, which direction is better and
// the share of the baseline median by which it may worsen before a change
// counts as a regression. This table and BENCHMARK.json must agree
// (bench_test.go checks).
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
	{"op_per_s", "1/s", "higher", 0.25},
	{"select_cost_ratio", "ratio", "lower", 0.05},
	{"resident_bytes_per_triple", "B", "lower", 0.10},
}

// quartiles are the cut points of Python's statistics.quantiles(vs, n=4)
// (the "exclusive" method), which is what the benchmark contract's spread is
// defined with. It needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = min(max(j, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// readRuns groups a result file's untraced records: workload -> metric ->
// one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for ln := 1; sc.Scan(); ln++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln, err)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per (end-to-end metric, workload): both
// medians, both spreads, the bound and a verdict for B against A —
// "unresolved" when either side's run-to-run spread is wider than the bound
// (the metric cannot tell a change of that size from noise), otherwise
// "worse" or "better" when the median moved against or with the metric's
// direction by more than the bound, else "within". It reports false when any
// row is worse or unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound", "verdict")
	for _, s := range specs {
		for _, m := range endToEnd {
			va, vb := a[s.name][m.name], b[s.name][m.name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(w, "%-14s %-26s needs at least 2 runs on each side (have %d, %d)\n", s.name, m.name, len(va), len(vb))
				ok = false
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			sa, sb := spread(va), spread(vb)
			worsening := (mb - ma) / ma
			if m.better == "higher" {
				worsening = -worsening
			}
			verdict := "within"
			switch {
			case sa > m.bound || sb > m.bound:
				verdict, ok = "unresolved", false
			case worsening > m.bound:
				verdict, ok = "worse", false
			case worsening < -m.bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-26s %14.4f %14.4f %7.1f%% %7.1f%% %5.0f%%  %s\n",
				s.name, m.name, ma, mb, 100*sa, 100*sb, 100*m.bound, verdict)
		}
	}
	return ok, nil
}
