package exp

import (
	"strconv"

	"rdfviews"
	"rdfviews/internal/workload"
)

// Figure 6 (Section 6.4): relative cost reduction of DFS-AVF-STV and
// GSTR-AVF-STV on large workloads — 5 to 200 queries of 10 atoms each,
// across chain / random-sparse / random-dense / star / mixed shapes at high
// and low commonality. The paper's findings to reproduce:
//
//   - DFS achieves very high rcr (often ≈0.99), GSTR generally lower;
//   - chains and sparse graphs are "easier" (higher rcr) than stars and
//     dense graphs;
//   - high commonality yields higher rcr than low;
//   - DFS ends with small views (≈3.2 atoms avg), GSTR with larger (≈6.5).
//
// The first and last do not reproduce at SmallScale: DFS stops improving
// early, below the paper's rcr, on views of ≈9 atoms, while GSTR keeps
// improving and leads in most low-commonality cells.

// Fig6Cell is one bar of Figure 6.
type Fig6Cell struct {
	Strategy    string
	Shape       workload.Shape
	Commonality workload.Commonality
	Queries     int
	RCR         float64
	AvgAtoms    float64
}

// Fig6Result holds all cells.
type Fig6Result struct {
	Cells []Fig6Cell
	// AvgAtomsDFS / AvgAtomsGSTR aggregate the per-view atom counts
	// (Section 6.4 reports 3.2 vs 6.5).
	AvgAtomsDFS  float64
	AvgAtomsGSTR float64
}

// Fig6Shapes are the workload shapes of the figure.
var Fig6Shapes = []workload.Shape{
	workload.Chain, workload.RandomSparse, workload.RandomDense, workload.Star, workload.Mixed,
}

// Figure6 runs the experiment; sizes defaults to the paper's
// {5, 10, 20, 50, 100, 200} when nil, atoms to 10.
func Figure6(sc Scale, sizes []int, atoms int) Fig6Result {
	if sizes == nil {
		sizes = []int{5, 10, 20, 50, 100, 200}
	}
	if atoms <= 0 {
		atoms = 10
	}
	tb := newTestbed(sc)
	strategies := []struct {
		name  string
		strat rdfviews.Strategy
	}{
		{"DFS-AVF-STV", rdfviews.StrategyDFS},
		{"GSTR-AVF-STV", rdfviews.StrategyGSTR},
	}
	var out Fig6Result
	var dfsAtoms, gstrAtoms []float64
	for _, shape := range Fig6Shapes {
		for _, comm := range []workload.Commonality{workload.High, workload.Low} {
			for _, n := range sizes {
				w := tb.genWorkload(n, atoms, shape, comm, sc.Seed+int64(n)*31)
				for _, s := range strategies {
					rec, err := tb.db.Recommend(w, sc.plain(s.strat, true, true))
					if err != nil {
						continue
					}
					avg := rec.Result().AvgAtomsPerView
					out.Cells = append(out.Cells, Fig6Cell{
						Strategy:    s.name,
						Shape:       shape,
						Commonality: comm,
						Queries:     n,
						RCR:         rec.RCR(),
						AvgAtoms:    avg,
					})
					if s.strat == rdfviews.StrategyDFS {
						dfsAtoms = append(dfsAtoms, avg)
					} else {
						gstrAtoms = append(gstrAtoms, avg)
					}
				}
			}
		}
	}
	out.AvgAtomsDFS = mean(dfsAtoms)
	out.AvgAtomsGSTR = mean(gstrAtoms)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// String renders the figure as a table.
func (r Fig6Result) String() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Strategy, c.Shape.String(), c.Commonality.String(),
			strconv.Itoa(c.Queries), f3(c.RCR), f3(c.AvgAtoms),
		})
	}
	return "Figure 6: relative cost reduction for large workloads (10 atoms/query)\n" +
		renderTable([]string{"strategy", "shape", "commonality", "queries", "rcr", "atoms/view"}, rows) +
		"\navg atoms/view: DFS=" + f3(r.AvgAtomsDFS) + " GSTR=" + f3(r.AvgAtomsGSTR) + "\n"
}
