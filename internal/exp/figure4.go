package exp

import (
	"errors"
	"strconv"

	"rdfviews"
	"rdfviews/internal/core"
	"rdfviews/internal/workload"
)

// Figure 4 (Section 6.2): relative cost reduction of the [21] strategies
// (Greedy, Heuristic, Pruning) against DFS-AVF-STV and GSTR-AVF-STV, on
// workloads of 5 queries with 5 and 10 atoms each, star and chain shapes,
// high and low commonality. The paper's findings to reproduce:
//
//   - on the 5-atom workloads every strategy produces a solution, with our
//     DFS/GSTR best;
//   - Greedy fails to improve on star workloads;
//   - on the 10-atom workloads, the [21] strategies exhaust memory before
//     producing any complete view set, while DFS and GSTR keep running and
//     achieve large reductions.

// Fig4Cell is one bar of Figure 4.
type Fig4Cell struct {
	Atoms       int
	Shape       workload.Shape
	Commonality workload.Commonality
	Strategy    string
	RCR         float64
	// OOM marks the memory-budget failures the paper reports for the [21]
	// strategies; TimedOut marks searches cut by stoptime (expected — the
	// paper cut these runs at 30 minutes too).
	OOM      bool
	TimedOut bool
}

// Fig4Result holds all cells.
type Fig4Result struct {
	Cells []Fig4Cell
}

var fig4Strategies = []struct {
	name  string
	strat rdfviews.Strategy
	avf   bool
	stv   bool
}{
	{"Greedy", rdfviews.StrategyGreedy, false, false},
	{"Heuristic", rdfviews.StrategyHeuristic, false, false},
	{"Pruning", rdfviews.StrategyPruning, false, false},
	{"DFS-AVF-STV", rdfviews.StrategyDFS, true, true},
	{"GSTR-AVF-STV", rdfviews.StrategyGSTR, true, true},
}

// Figure4 runs the experiment at the given scale.
func Figure4(sc Scale) Fig4Result {
	tb := newTestbed(sc)
	var out Fig4Result
	for _, atoms := range []int{5, 10} {
		for _, shape := range []workload.Shape{workload.Star, workload.Chain} {
			for _, comm := range []workload.Commonality{workload.High, workload.Low} {
				w := tb.genWorkload(5, atoms, shape, comm, sc.Seed+int64(atoms))
				for _, s := range fig4Strategies {
					cell := Fig4Cell{Atoms: atoms, Shape: shape, Commonality: comm, Strategy: s.name}
					rec, err := tb.db.Recommend(w, sc.plain(s.strat, s.avf, s.stv))
					if errors.Is(err, core.ErrStateBudget) {
						cell.OOM = true
					} else if err == nil {
						cell.RCR = rec.RCR()
						cell.TimedOut = rec.Result().TimedOut
					}
					out.Cells = append(out.Cells, cell)
				}
			}
		}
	}
	return out
}

// String renders the figure as a table.
func (r Fig4Result) String() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		v := f3(c.RCR)
		if c.OOM {
			v = "OOM"
		} else if c.TimedOut {
			v += " (t/o)"
		}
		rows = append(rows, []string{
			strconv.Itoa(c.Atoms), c.Shape.String(), c.Commonality.String(), c.Strategy, v,
		})
	}
	return "Figure 4: strategy comparison on small workloads (5 queries)\n" +
		renderTable([]string{"atoms", "shape", "commonality", "strategy", "rcr"}, rows)
}
