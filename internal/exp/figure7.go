package exp

import (
	"fmt"
	"strconv"
	"time"

	"rdfviews"
	"rdfviews/internal/core"
	"rdfviews/internal/cq"
	"rdfviews/internal/reason"
	"rdfviews/internal/workload"
)

// Table 3 and Figure 7 (Section 6.5): view selection under RDF entailment.
// Two satisfiable workloads Q1 ⊂ Q2 are reformulated against the Barton-like
// schema; Table 3 reports their sizes, and Figure 7 compares the best-cost-
// over-time curves of pre-reformulation (search on the reformulated
// workload, original statistics) and post-reformulation (search on the
// original workload, reformulated statistics). The paper's findings:
//
//   - reformulated workloads are several times larger (Table 3);
//   - the pre-reformulation initial state costs more, and its cost decreases
//     more slowly;
//   - post-reformulation reaches a best cost several times lower within the
//     same budget, with the gap growing with workload size (2.7× for Q1,
//     22× for Q2 in the paper).

// Table3Row describes one workload before and after reformulation.
type Table3Row struct {
	Name      string
	Queries   int
	Atoms     int
	Constants int
	// Reformulated counterpart sizes (|Qr|, #a(Qr), #c(Qr)).
	RefQueries   int
	RefAtoms     int
	RefConstants int
}

// Fig7Series is one curve of Figure 7.
type Fig7Series struct {
	Workload string // "Q1" or "Q2"
	Mode     string // "pre-reform." or "post-reform."
	Timeline []core.TimelinePoint
	Final    float64
	Initial  float64
}

// ReformResult bundles Table 3 and Figure 7.
type ReformResult struct {
	Table3 []Table3Row
	Series []Fig7Series
	// Ratio[i] = final(pre)/final(post) for workload i.
	Ratio map[string]float64
}

// reformModes are Figure 7's two series and Figure 8's two view sets.
// Post-reformulation searches the original workload on reformulated
// statistics; pre-reformulation searches the reformulated workload on the
// original statistics.
var reformModes = []struct {
	name string
	mode rdfviews.Reasoning
}{{"post-reform.", rdfviews.ReasoningPost}, {"pre-reform.", rdfviews.ReasoningPre}}

// reformWorkloads builds Q1 ⊂ Q2 satisfiable on the testbed, biased toward
// type atoms so that reformulation has schema statements to traverse.
func reformWorkloads(tb *testbed, sc Scale) (q1, q2 []*cq.Query, err error) {
	qs, err := workload.GenerateSatisfiable(tb.db.Store(), workload.Spec{
		Queries:       10,
		AtomsPerQuery: 5,
		Commonality:   workload.High,
		Seed:          sc.Seed + 7,
	})
	if err != nil {
		return nil, nil, err
	}
	return qs[:5], qs, nil
}

// ReformExperiment runs Table 3 + Figure 7.
func ReformExperiment(sc Scale) (ReformResult, error) {
	tb := newTestbed(sc)
	q1, q2, err := reformWorkloads(tb, sc)
	if err != nil {
		return ReformResult{}, err
	}
	out := ReformResult{Ratio: map[string]float64{}}
	for _, wl := range []struct {
		name    string
		queries []*cq.Query
	}{{"Q1", q1}, {"Q2", q2}} {
		row := Table3Row{Name: wl.name, Queries: len(wl.queries)}
		for i, q := range wl.queries {
			row.Atoms += len(q.Atoms)
			row.Constants += q.ConstCount()
			u, err := reason.Reformulate(q, tb.schema, 0)
			if err != nil {
				return ReformResult{}, fmt.Errorf("reformulating %s query %d: %w", wl.name, i+1, err)
			}
			row.RefQueries += u.Len()
			row.RefAtoms += u.TotalAtoms()
			row.RefConstants += u.TotalConstants()
		}
		out.Table3 = append(out.Table3, row)

		var final [2]float64
		for i, m := range reformModes {
			rec, err := tb.db.Recommend(&rdfviews.Workload{Queries: wl.queries}, sc.reasoned(m.mode))
			if err != nil {
				return ReformResult{}, err
			}
			final[i] = rec.Cost().Total
			out.Series = append(out.Series, Fig7Series{
				Workload: wl.name, Mode: m.name,
				Timeline: rec.Result().Timeline,
				Final:    final[i],
				Initial:  rec.InitialCost().Total,
			})
		}
		if final[0] > 0 {
			out.Ratio[wl.name] = final[1] / final[0]
		}
	}
	return out, nil
}

// String renders Table 3 and the Figure 7 summaries.
func (r ReformResult) String() string {
	rows := make([][]string, 0, len(r.Table3))
	for _, t := range r.Table3 {
		rows = append(rows, []string{
			t.Name, strconv.Itoa(t.Queries), strconv.Itoa(t.Atoms), strconv.Itoa(t.Constants),
			strconv.Itoa(t.RefQueries), strconv.Itoa(t.RefAtoms), strconv.Itoa(t.RefConstants),
		})
	}
	s := "Table 3: workloads used for reformulation experiments\n" +
		renderTable([]string{"Q", "|Q|", "#a(Q)", "#c(Q)", "|Qr|", "#a(Qr)", "#c(Qr)"}, rows)
	s += "\nFigure 7: best cost over time (DFS-AVF-STV)\n"
	srows := make([][]string, 0, len(r.Series))
	for _, se := range r.Series {
		srows = append(srows, []string{
			se.Workload, se.Mode, sci(se.Initial), sci(se.Final),
			strconv.Itoa(len(se.Timeline)),
		})
	}
	s += renderTable([]string{"workload", "mode", "initial cost", "final best", "timeline points"}, srows)
	for wl, ratio := range r.Ratio {
		s += fmt.Sprintf("best-cost ratio pre/post for %s: %.2f\n", wl, ratio)
	}
	return s
}

// TimelineCSV renders a series as "elapsed_ms,cost" lines for plotting.
func (s Fig7Series) TimelineCSV() string {
	out := "elapsed_ms,cost\n"
	for _, p := range s.Timeline {
		out += fmt.Sprintf("%.1f,%g\n", float64(p.Elapsed)/float64(time.Millisecond), p.Cost)
	}
	return out
}
