package rdfviews

import (
	"fmt"
	"sort"
	"strings"

	"rdfviews/internal/algebra"
	"rdfviews/internal/engine"
)

// ViewStat describes one recommended view with its cost-model estimates.
type ViewStat struct {
	ID         int
	Definition string
	Atoms      int
	// EstRows is the estimated cardinality |v|ε (Section 3.3).
	EstRows float64
	// EstBytes is the estimated storage footprint (|v|ε × row width).
	EstBytes float64
}

// PlanStat describes the estimated execution profile of one rewriting.
type PlanStat struct {
	Query string
	Plan  string
	// EstIO is Σ |v|ε over scanned views; EstCPU the selection/join work;
	// EstRows the rewriting's output cardinality.
	EstIO   float64
	EstCPU  float64
	EstRows float64
}

// ViewStats returns the per-view estimates, sorted by view ID.
func (r *Recommendation) ViewStats() []ViewStat {
	views := r.state.SortedViews()
	out := make([]ViewStat, 0, len(views))
	for _, v := range views {
		out = append(out, ViewStat{
			ID:         int(v.ID),
			Definition: v.Q.Format(r.db.st.Dict()),
			Atoms:      v.Q.Len(),
			EstRows:    r.estimator.ViewCardinality(v.Q),
			EstBytes:   r.estimator.ViewSpace(v.Q),
		})
	}
	return out
}

// PlanStats returns the per-rewriting estimates, in workload order.
func (r *Recommendation) PlanStats() []PlanStat {
	views := r.state.ViewQueries()
	out := make([]PlanStat, 0, len(r.state.Plans))
	for i, p := range r.state.Plans {
		pc := r.estimator.PlanCost(p, views)
		query := ""
		if i < len(r.workload.Queries) {
			query = r.workload.Queries[i].Format(r.db.st.Dict())
		}
		out = append(out, PlanStat{
			Query:   query,
			Plan:    p.String(),
			EstIO:   pc.IO,
			EstCPU:  pc.CPU,
			EstRows: pc.Card,
		})
	}
	return out
}

// Explain renders a human-readable report of the recommendation: the search
// outcome, the cost breakdown, every view with its estimates, and every
// rewriting with its estimated execution profile.
func (r *Recommendation) Explain() string {
	var sb strings.Builder
	res := r.result
	fmt.Fprintf(&sb, "search: %s over %d queries — %d states created, %d duplicates, %d discarded, %v elapsed\n",
		r.mode, len(r.workload.Queries),
		res.Counters.Created, res.Counters.Duplicates, res.Counters.Discarded,
		res.Duration.Round(1000000))
	init, best := r.InitialCost(), r.Cost()
	fmt.Fprintf(&sb, "cost: %.6g -> %.6g (rcr %.3f)\n", init.Total, best.Total, r.RCR())
	fmt.Fprintf(&sb, "breakdown: VSO %.6g | REC %.6g | VMC %.6g\n\n", best.VSO, best.REC, best.VMC)

	stats := r.ViewStats()
	sort.Slice(stats, func(i, j int) bool { return stats[i].EstBytes > stats[j].EstBytes })
	sb.WriteString("views (largest first):\n")
	for _, v := range stats {
		fmt.Fprintf(&sb, "  v%d: %d atoms, ≈%.0f rows, ≈%.0f bytes\n      %s\n",
			v.ID, v.Atoms, v.EstRows, v.EstBytes, v.Definition)
	}
	sb.WriteString("\nrewritings:\n")
	for i, p := range r.PlanStats() {
		fmt.Fprintf(&sb, "  q%d: io ≈%.0f, cpu ≈%.0f, rows ≈%.0f\n      %s\n      = %s\n",
			i+1, p.EstIO, p.EstCPU, p.EstRows, p.Query, p.Plan)
	}
	sb.WriteString("\n")
	sb.WriteString(r.ExplainPhysical())
	return sb.String()
}

// ExplainPhysical renders the physical execution plans behind the
// recommendation: for each view, the scan-permutation/join pipeline the
// engine compiles to materialize it against the store (index scans, merge
// joins with residual equalities, explicit Sorts at sort breaks, hash joins
// with their chosen build side — all annotated with estimated row counts),
// and for each rewriting, the streaming operator tree it executes over the
// materialized views. This is the physical counterpart of the logical
// rewritings shown by Explain.
func (r *Recommendation) ExplainPhysical() string {
	var sb strings.Builder
	sb.WriteString("physical plans:\n")
	sb.WriteString("  view materialization (over the store):\n")
	for _, v := range r.state.SortedViews() {
		fmt.Fprintf(&sb, "    v%d:\n", int(v.ID))
		qp, err := engine.PlanQueryWithStats(r.matStore, v.Q, r.estimator.Stats)
		if err != nil {
			fmt.Fprintf(&sb, "      (unplannable: %v)\n", err)
			continue
		}
		sb.WriteString(indentLines(qp.Explain(), "      "))
	}
	card := func(id algebra.ViewID) float64 {
		if v, ok := r.state.Views[id]; ok {
			return r.estimator.ViewCardinality(v.Q)
		}
		return 0
	}
	sb.WriteString("  rewriting execution (over the views):\n")
	for i, p := range r.state.Plans {
		fmt.Fprintf(&sb, "    q%d:\n", i+1)
		node, err := engine.DescribePlan(p, card)
		if err != nil {
			fmt.Fprintf(&sb, "      (unplannable: %v)\n", err)
			continue
		}
		sb.WriteString(indentLines(node.String(), "      "))
	}
	return sb.String()
}

func indentLines(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
