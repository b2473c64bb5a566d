package exp

import (
	"strconv"

	"rdfviews"
	"rdfviews/internal/core"
	"rdfviews/internal/workload"
)

// Figure 5 (Section 6.3): impact of the AVF and STV heuristics on the
// search-space size, measured as created / duplicate / discarded / explored
// state counts for the DFS strategy under the four heuristic combinations.
// The paper's findings to reproduce:
//
//   - duplicates are a significant share of created states;
//   - AVF reduces created states while preserving the best state found;
//   - STV discards many states, trimming all counts substantially;
//   - AVF-STV is at least as small as STV alone.

// Fig5Row is one bar group of Figure 5.
type Fig5Row struct {
	Heuristics string
	Counters   core.Counters
	BestCost   float64
	Completed  bool
}

// Fig5Result holds the four rows.
type Fig5Result struct {
	Rows []Fig5Row
}

// Figure5 runs DFS over a 2-query star workload (the paper uses 4 atoms per
// query; atoms is configurable because the NONE variant's state space grows
// steeply: ~800 states at 2 atoms, ~5·10^5 at 3, beyond 10^7 at 4). The
// counts are only comparable when every run completes, so Figure5 stretches
// the scale's budget 20× — the paper's cluster runs also ran to completion.
func Figure5(sc Scale, atoms int) Fig5Result {
	if atoms <= 0 {
		atoms = 3
	}
	sc.Budget *= 20
	sc.MaxStates *= 20
	tb := newTestbed(sc)
	w := tb.genWorkload(2, atoms, workload.Star, workload.Low, sc.Seed+5)

	var out Fig5Result
	for _, cb := range heuristicCombos {
		rec, err := tb.db.Recommend(w, sc.plain(rdfviews.StrategyDFS, cb.avf, cb.stv))
		if err != nil {
			continue
		}
		res := rec.Result()
		out.Rows = append(out.Rows, Fig5Row{
			Heuristics: cb.name,
			Counters:   res.Counters,
			BestCost:   res.BestCost.Total,
			Completed:  !res.TimedOut,
		})
	}
	return out
}

// heuristicCombos are the four AVF × STV settings of Figure 5 and the
// ablation.
var heuristicCombos = []struct {
	name     string
	avf, stv bool
}{
	{"NONE", false, false},
	{"AVF", true, false},
	{"STV", false, true},
	{"AVF-STV", true, true},
}

// String renders the figure as a table.
func (r Fig5Result) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Heuristics,
			strconv.Itoa(row.Counters.Created),
			strconv.Itoa(row.Counters.Duplicates),
			strconv.Itoa(row.Counters.Discarded),
			strconv.Itoa(row.Counters.Explored),
			sci(row.BestCost),
			boolStr(row.Completed),
		})
	}
	return "Figure 5: impact of heuristics on the search (DFS, 2 star queries)\n" +
		renderTable([]string{"heuristics", "created", "duplicates", "discarded", "explored", "best cost", "completed"}, rows)
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
