package exp

// One benchmark per table and figure of the paper's evaluation (Section 6),
// driving the harness at a reduced scale; cmd/expdriver runs the same
// experiments with larger budgets.
//
// Custom metrics reported:
//
//	rcr           relative cost reduction (Figures 4 and 6)
//	states        states created (Figure 5)
//	ratio         pre/post best-cost ratio (Figure 7)
//	speedup       triple-table time / view-based time (Figure 8)

import (
	"testing"
	"time"
)

func benchScale() Scale {
	return Scale{
		Budget:    400 * time.Millisecond,
		Triples:   10000,
		MaxStates: 30000,
		Seed:      2011,
	}
}

// BenchmarkTable2Reformulation measures Algorithm 1 on the Table 2 example.
func BenchmarkTable2Reformulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := Table2(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure4StrategyComparison runs the small-workload strategy
// comparison (ours vs the [21] competitors).
func BenchmarkFigure4StrategyComparison(b *testing.B) {
	sc := benchScale()
	var avg float64
	for i := 0; i < b.N; i++ {
		res := Figure4(sc)
		sum, n := 0.0, 0
		for _, c := range res.Cells {
			if c.Strategy == "DFS-AVF-STV" || c.Strategy == "GSTR-AVF-STV" {
				sum += c.RCR
				n++
			}
		}
		if n > 0 {
			avg = sum / float64(n)
		}
	}
	b.ReportMetric(avg, "rcr")
}

// BenchmarkFigure5Heuristics runs the heuristic-impact experiment (AVF/STV
// state counts) at a 2-atom scale where all four variants complete, keeping
// the counts comparable (expdriver runs the larger configurations).
func BenchmarkFigure5Heuristics(b *testing.B) {
	sc := benchScale()
	var created int
	for i := 0; i < b.N; i++ {
		res := Figure5(sc, 2)
		for _, r := range res.Rows {
			if r.Heuristics == "AVF-STV" {
				created = r.Counters.Created
			}
		}
	}
	b.ReportMetric(float64(created), "states")
}

// BenchmarkFigure6LargeWorkloads runs the scalability experiment on a
// reduced size ladder.
func BenchmarkFigure6LargeWorkloads(b *testing.B) {
	sc := benchScale()
	var rcr float64
	for i := 0; i < b.N; i++ {
		res := Figure6(sc, []int{5, 10, 20}, 10)
		n := 0
		rcr = 0
		for _, c := range res.Cells {
			if c.Strategy == "DFS-AVF-STV" {
				rcr += c.RCR
				n++
			}
		}
		if n > 0 {
			rcr /= float64(n)
		}
	}
	b.ReportMetric(rcr, "rcr")
}

// BenchmarkFigure7Reformulation runs the pre- vs post-reformulation search
// comparison (also producing Table 3).
func BenchmarkFigure7Reformulation(b *testing.B) {
	sc := benchScale()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := ReformExperiment(sc)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio["Q2"]
	}
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkFigure8QueryEvaluation runs the view-based query evaluation
// comparison.
func BenchmarkFigure8QueryEvaluation(b *testing.B) {
	sc := benchScale()
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := Figure8(sc, 1)
		if err != nil {
			b.Fatal(err)
		}
		var table, views time.Duration
		for _, r := range res.Rows {
			table += r.Saturated
			views += r.PostViews
		}
		if views > 0 {
			speedup = float64(table) / float64(views)
		}
	}
	b.ReportMetric(speedup, "speedup")
}
