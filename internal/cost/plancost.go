package cost

import (
	"math"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
)

// Physical join-method weights: the per-row constants the engine's physical
// planner uses to choose between a hash join and sorting the pipeline to
// enable a merge join. They reflect the engine's measured operator profiles,
// not the logical cost function of Section 3.3 (whose weights live in
// Weights): a hash-table insert costs a hash, a table slot and a row copy; a
// probe costs a hash and a chain walk; a merge step is one comparison over an
// already-sorted stream; a sort comparison includes sort.Slice dispatch
// overhead.
const (
	// HashBuildWeight is the cost of inserting one row into the join table.
	HashBuildWeight = 2.0
	// HashProbeWeight is the cost of probing the table with one row.
	HashProbeWeight = 1.0
	// SortWeight is the cost of one comparison while sorting the pipeline.
	SortWeight = 1.5
	// MergeWeight is the cost of advancing one row of a sorted merge.
	MergeWeight = 0.5
)

// HashJoinCost estimates a hash join that builds a table over build rows and
// probes it with probe rows. Callers pass the smaller side as build when the
// executor is free to choose its build side.
func HashJoinCost(build, probe float64) float64 {
	return HashBuildWeight*build + HashProbeWeight*probe
}

// SortMergeJoinCost estimates sorting a pipeline of pipe rows and merge-
// joining it against an index cursor of atom rows that is already sorted
// (the store's permutation indexes make the right side free to order).
func SortMergeJoinCost(pipe, atom float64) float64 {
	return SortWeight*pipe*math.Log2(math.Max(pipe, 2)) + MergeWeight*(pipe+atom)
}

// RewriteBuildMargin is how much cheaper (under HashJoinCost) building a
// rewriting hash join over its left input must be before the executor flips
// from the default build=right. Rewriting inputs are materialized view
// extents whose leaf cardinalities are exact at execution time, so the margin
// is far smaller than the store planner's buildLeftMargin (which guards
// against the containment estimate under-reading fan-out joins); it still
// absorbs estimate drift introduced by selections and inner joins. With the
// 2:1 build:probe weights this flips the build side once the right input
// exceeds four times the left.
const RewriteBuildMargin = 1.5

// HashJoinBuildLeft reports whether a hash join that is free to choose its
// build side should build the table over its left input: building left must
// beat building right by RewriteBuildMargin. Ties (including the unknown
// 0-vs-0 case of estimate-free explains) keep the historical build=right.
func HashJoinBuildLeft(left, right float64) bool {
	return HashJoinCost(left, right)*RewriteBuildMargin < HashJoinCost(right, left)
}

// PlanCosting carries the estimated execution profile of a rewriting plan.
type PlanCosting struct {
	// Card is the estimated output cardinality.
	Card float64
	// IO is Σ |v|ε over the views scanned by the plan (ioε of Section 3.3).
	IO float64
	// CPU sums the costs of selections and joins (cpuε). Projections are
	// free: they are applied on the fly while streaming, which preserves the
	// paper's invariant that View Fusion never increases query cost.
	CPU float64

	// cols describes the output columns, in first-appearance order. A slice,
	// not a map: plans have a handful of columns, and the join selectivities
	// below divide in column order, which must not vary from call to call.
	cols []colInfo
}

// colInfo tracks, per output column, the triple-table column it derives from
// and its estimated number of distinct values.
type colInfo struct {
	label    cq.Term
	pos      int
	distinct float64
}

func findCol(cols []colInfo, label cq.Term) (colInfo, bool) {
	for _, c := range cols {
		if c.label == label {
			return c, true
		}
	}
	return colInfo{}, false
}

// setCol replaces the column labeled like c, or appends c.
func setCol(cols []colInfo, c colInfo) []colInfo {
	for i := range cols {
		if cols[i].label == c.label {
			cols[i] = c
			return cols
		}
	}
	return append(cols, c)
}

// capDistinct bounds every column's distinct count by the cardinality.
func capDistinct(cols []colInfo, card float64) {
	for i := range cols {
		if cols[i].distinct > card {
			cols[i].distinct = math.Max(card, 1)
		}
	}
}

// PlanCost estimates the execution cost of a rewriting plan against the view
// definitions it scans, using hash-join accounting: build + probe + output.
func (e *Estimator) PlanCost(p algebra.Plan, views map[algebra.ViewID]*cq.Query) PlanCosting {
	return e.PlanCostBy(p, func(id algebra.ViewID) *cq.Query { return views[id] })
}

// PlanCostBy is PlanCost with the view definitions behind a lookup (nil for
// an unknown view), for callers that do not hold them in a map.
func (e *Estimator) PlanCostBy(p algebra.Plan, view func(algebra.ViewID) *cq.Query) PlanCosting {
	return e.planCost(p, view, false)
}

// planCost describes the output columns only where wantCols says something
// above will read them: selections and joins read their inputs', a union its
// first branch's, nothing reads the root's. Every column list is built fresh
// by a scan, so a parent edits its input's in place.
func (e *Estimator) planCost(p algebra.Plan, view func(algebra.ViewID) *cq.Query, wantCols bool) PlanCosting {
	switch n := p.(type) {
	case *algebra.Scan:
		return e.scanCost(n, view(n.View), wantCols)
	case *algebra.Select:
		return e.selectCost(n, e.planCost(n.Input, view, true))
	case *algebra.Project:
		in := e.planCost(n.Input, view, wantCols)
		kept := 0
		for _, label := range n.Cols {
			for i := kept; i < len(in.cols); i++ {
				if in.cols[i].label == label {
					in.cols[kept], in.cols[i] = in.cols[i], in.cols[kept]
					kept++
					break
				}
			}
		}
		in.cols = in.cols[:kept]
		return in
	case *algebra.Join:
		return e.joinCost(n, e.planCost(n.Left, view, true), e.planCost(n.Right, view, true))
	case *algebra.Union:
		var out PlanCosting
		for i, b := range n.Branches {
			bc := e.planCost(b, view, wantCols && i == 0)
			out.Card += bc.Card
			out.IO += bc.IO
			out.CPU += bc.CPU
			if i == 0 {
				out.cols = bc.cols
			}
		}
		// Deduplicating the union touches every produced tuple once.
		out.CPU += out.Card
		return out
	default:
		return PlanCosting{}
	}
}

func (e *Estimator) scanCost(n *algebra.Scan, v *cq.Query, wantCols bool) PlanCosting {
	if v == nil {
		// Unknown view: treat as empty. Search invariants prevent this.
		return PlanCosting{}
	}
	card := e.ViewTerms(v).Card
	pc := PlanCosting{Card: card, IO: card}
	if !wantCols {
		return pc
	}
	pc.cols = make([]colInfo, 0, len(n.Cols))
	for i, label := range n.Cols {
		if i >= len(v.Head) {
			break
		}
		pos := firstBodyColumn(v, v.Head[i])
		pc.cols = setCol(pc.cols, colInfo{label: label, pos: pos, distinct: e.colDistinct(pos, card)})
	}
	return pc
}

func (e *Estimator) selectCost(n *algebra.Select, in PlanCosting) PlanCosting {
	// Inspect every input tuple.
	cpu := in.CPU + in.Card
	card := in.Card
	cols := in.cols
	for _, c := range n.Conds {
		li, ok := findCol(cols, c.Left)
		if !ok {
			li = colInfo{label: c.Left, pos: 2, distinct: math.Max(card, 1)}
		}
		if c.Right.IsConst() {
			sel := 1 / math.Max(li.distinct, 1)
			card *= sel
			li.distinct = 1
			cols = setCol(cols, li)
			continue
		}
		ri, ok := findCol(cols, c.Right)
		if !ok {
			ri = colInfo{label: c.Right, pos: 2, distinct: math.Max(card, 1)}
		}
		card /= math.Max(math.Max(li.distinct, ri.distinct), 1)
		d := math.Min(li.distinct, ri.distinct)
		li.distinct, ri.distinct = d, d
		cols = setCol(setCol(cols, li), ri)
	}
	capDistinct(cols, card)
	return PlanCosting{Card: card, IO: in.IO, CPU: cpu, cols: cols}
}

func (e *Estimator) joinCost(n *algebra.Join, l, r PlanCosting) PlanCosting {
	card := l.Card * r.Card
	// Natural-join keys: labels present on both sides.
	for _, li := range l.cols {
		if !li.label.IsVar() {
			continue
		}
		if ri, ok := findCol(r.cols, li.label); ok {
			card /= math.Max(math.Max(li.distinct, ri.distinct), 1)
		}
	}
	// Explicit cross conditions (Join Cut's ⊳⊲e).
	for _, c := range n.Conds {
		li, lok := findCol(l.cols, c.Left)
		ri, rok := findCol(r.cols, c.Right)
		dl, dr := math.Max(l.Card, 1), math.Max(r.Card, 1)
		if lok {
			dl = li.distinct
		}
		if rok {
			dr = ri.distinct
		}
		card /= math.Max(math.Max(dl, dr), 1)
	}
	// Hash join: build the smaller side, probe the larger, emit the output.
	cpu := l.CPU + r.CPU + math.Min(l.Card, r.Card) + math.Max(l.Card, r.Card) + card
	cols := l.cols
	for _, ri := range r.cols {
		if _, ok := findCol(l.cols, ri.label); !ok {
			cols = append(cols, ri)
		}
	}
	capDistinct(cols, card)
	return PlanCosting{Card: card, IO: l.IO + r.IO, CPU: cpu, cols: cols}
}
