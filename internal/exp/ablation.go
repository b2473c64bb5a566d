package exp

import (
	"strconv"
	"time"

	"rdfviews"
	"rdfviews/internal/workload"
)

// AblationRow is one cell of the strategy × heuristic grid Ablation sweeps on
// one workload: how much of the result quality comes from the strategy (DFS
// vs GSTR vs exhaustive), and how much from the AVF/STV heuristics.
type AblationRow struct {
	Strategy   string
	Heuristics string
	RCR        float64
	Created    int
	StatesSeen int
	Duration   time.Duration
	TimedOut   bool
}

// AblationResult holds the grid.
type AblationResult struct {
	Rows []AblationRow
}

// Ablation runs the grid over one mixed high-commonality workload.
func Ablation(sc Scale, queries, atoms int) AblationResult {
	if queries <= 0 {
		queries = 6
	}
	if atoms <= 0 {
		atoms = 5
	}
	tb := newTestbed(sc)
	wl := tb.genWorkload(queries, atoms, workload.Mixed, workload.High, sc.Seed+99)

	strategies := []struct {
		name  string
		strat rdfviews.Strategy
	}{
		{"EXNAIVE", rdfviews.StrategyExNaive},
		{"EXSTR", rdfviews.StrategyExStr},
		{"DFS", rdfviews.StrategyDFS},
		{"GSTR", rdfviews.StrategyGSTR},
	}
	var out AblationResult
	for _, s := range strategies {
		for _, cb := range heuristicCombos {
			rec, err := tb.db.Recommend(wl, sc.plain(s.strat, cb.avf, cb.stv))
			if err != nil {
				continue
			}
			res := rec.Result()
			out.Rows = append(out.Rows, AblationRow{
				Strategy:   s.name,
				Heuristics: cb.name,
				RCR:        res.RCR(),
				Created:    res.Counters.Created,
				StatesSeen: res.StatesSeen,
				Duration:   res.Duration,
				TimedOut:   res.TimedOut,
			})
		}
	}
	return out
}

// String renders the grid.
func (r AblationResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Strategy, row.Heuristics, f3(row.RCR),
			strconv.Itoa(row.Created), strconv.Itoa(row.StatesSeen),
			row.Duration.Round(time.Millisecond).String(),
			boolStr(!row.TimedOut),
		})
	}
	return "Ablation: strategy × heuristics (mixed high-commonality workload)\n" +
		renderTable([]string{"strategy", "heuristics", "rcr", "created", "distinct states", "time", "completed"}, rows)
}
