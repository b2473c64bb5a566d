package exp

import (
	"time"

	"rdfviews/internal/core"
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
		strat core.Strategy
	}{
		{"EXNAIVE", core.ExNaive},
		{"EXSTR", core.ExStr},
		{"DFS", core.DFS},
		{"GSTR", core.GSTR},
	}
	combos := []struct {
		name     string
		avf, stv bool
	}{
		{"NONE", false, false},
		{"AVF", true, false},
		{"STV", false, true},
		{"AVF-STV", true, true},
	}
	var out AblationResult
	for _, s := range strategies {
		for _, cb := range combos {
			s0, ctx, err := core.InitialState(wl)
			if err != nil {
				continue
			}
			res, err := core.Search(s0, ctx, core.Options{
				Strategy:  s.strat,
				AVF:       cb.avf,
				STV:       cb.stv,
				Timeout:   sc.Budget,
				MaxStates: sc.MaxStates,
				Estimator: tb.estimator(),
			})
			if err != nil {
				continue
			}
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
			fmt_itoa(row.Created), fmt_itoa(row.StatesSeen),
			row.Duration.Round(time.Millisecond).String(),
			boolStr(!row.TimedOut),
		})
	}
	return "Ablation: strategy × heuristics (mixed high-commonality workload)\n" +
		renderTable([]string{"strategy", "heuristics", "rcr", "created", "distinct states", "time", "completed"}, rows)
}
