package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// refExecute is the reference semantics of algebra.Plan over view extents: a
// nested-loop interpreter that materializes every node. It shares nothing
// with the operators it checks — no compiled shapes, hash tables or batches —
// so the rewriting differentials compare two independent readings of the
// algebra. Scans and selections keep duplicates, joins pair them, projections
// and unions deduplicate (refDistinct: a Go map, not the operators' RowIndex),
// exactly the executor's contract.
func refExecute(t testing.TB, p algebra.Plan, views map[algebra.ViewID]*Relation) *Relation {
	t.Helper()
	switch n := p.(type) {
	case *algebra.Scan:
		base := views[n.View]
		out := NewRelation(n.Cols)
		for _, row := range rowsOf(base) {
			keep := true
			for i, c := range n.Cols { // a repeated label is an equality filter
				keep = keep && row[i] == row[out.ColIndex(c)]
			}
			if keep {
				out.Append(row)
			}
		}
		return out
	case *algebra.Select:
		in := refExecute(t, n.Input, views)
		out := NewRelation(in.Cols)
		for _, row := range rowsOf(in) {
			keep := true
			for _, c := range n.Conds {
				if c.Right.IsConst() {
					keep = keep && row[in.ColIndex(c.Left)] == c.Right.ConstID()
				} else {
					keep = keep && row[in.ColIndex(c.Left)] == row[in.ColIndex(c.Right)]
				}
			}
			if keep {
				out.Append(row)
			}
		}
		return out
	case *algebra.Project:
		out, err := refProject(refExecute(t, n.Input, views), n.Cols)
		if err != nil {
			t.Fatalf("ref: %s: %v", p, err)
		}
		return out
	case *algebra.Join:
		l, r := refExecute(t, n.Left, views), refExecute(t, n.Right, views)
		// Output: the left columns, then the right columns the left side does
		// not already expose under the same variable.
		cols := slices.Clone(l.Cols)
		var keepRight []int
		for i, c := range r.Cols {
			if c.IsConst() || l.ColIndex(c) < 0 {
				cols = append(cols, c)
				keepRight = append(keepRight, i)
			}
		}
		out := NewRelation(cols)
		for _, lr := range rowsOf(l) {
			for _, rr := range rowsOf(r) {
				match := true
				for i, c := range l.Cols { // natural join on first occurrences
					if j := r.ColIndex(c); c.IsVar() && j >= 0 && l.ColIndex(c) == i {
						match = match && lr[i] == rr[j]
					}
				}
				for _, c := range n.Conds {
					match = match && lr[l.ColIndex(c.Left)] == rr[r.ColIndex(c.Right)]
				}
				if match {
					row := append(Row(nil), lr...)
					for _, i := range keepRight {
						row = append(row, rr[i])
					}
					out.Append(row)
				}
			}
		}
		return out
	case *algebra.Union:
		out := refExecute(t, n.Branches[0], views)
		for _, b := range n.Branches[1:] {
			for _, row := range rowsOf(refExecute(t, b, views)) {
				out.Append(row)
			}
		}
		return refDistinct(out)
	}
	t.Fatalf("ref: unknown plan node %T", p)
	return nil
}

// refDistinct returns r's rows without duplicates, first occurrences in
// order, told apart by a Go map keyed on their values.
func refDistinct(r *Relation) *Relation {
	out := NewRelation(r.Cols)
	seen := make(map[string]bool, r.Len())
	var key []byte
	row := make(Row, 0, r.Arity())
	for i := 0; i < r.Len(); i++ {
		row = r.Row(i, row)
		if key = appendRowKey(key[:0], row); !seen[string(key)] {
			seen[string(key)] = true
			out.Append(row)
		}
	}
	return out
}

// refProject is the reference projection of r onto cols: constant labels
// project as constant columns, and the output is deduplicated.
func refProject(r *Relation, cols []cq.Term) (*Relation, error) {
	idx := make([]int, len(cols))
	for k, c := range cols {
		if idx[k] = r.ColIndex(c); idx[k] < 0 && !c.IsConst() {
			return nil, fmt.Errorf("ref: projection column %v not in %v", c, r.Cols)
		}
	}
	out := NewRelation(cols)
	row := make(Row, len(cols))
	for i := 0; i < r.Len(); i++ {
		for k, c := range cols {
			if c.IsConst() {
				row[k] = c.ConstID()
			} else {
				row[k] = r.At(i, idx[k])
			}
		}
		out.Append(row)
	}
	return refDistinct(out), nil
}

// planGen draws random rewriting plans over four extents. Labels come from a
// five-variable pool, so scans repeat labels and joins share them by chance.
type planGen struct {
	t      testing.TB
	rng    *rand.Rand
	views  map[algebra.ViewID]*Relation
	domain int
}

// varOf picks a variable label the plan exposes; ok is false when it exposes
// only constant columns.
func (g *planGen) varOf(p algebra.Plan) (cq.Term, bool) {
	var vars []cq.Term
	for _, c := range p.Columns() {
		if c.IsVar() {
			vars = append(vars, c)
		}
	}
	if len(vars) == 0 {
		return 0, false
	}
	return vars[g.rng.Intn(len(vars))], true
}

// project wraps in into a k-column projection of its variables and, one time
// in five, a constant column.
func (g *planGen) project(in algebra.Plan, k int) algebra.Plan {
	cols := make([]cq.Term, k)
	for i := range cols {
		v, ok := g.varOf(in)
		if !ok || g.rng.Intn(5) == 0 {
			v = cq.Const(dict.ID(1 + g.rng.Intn(g.domain)))
		}
		cols[i] = v
	}
	return algebra.NewProject(in, cols)
}

func (g *planGen) gen(depth int) algebra.Plan {
	if depth <= 1 || g.rng.Intn(5) == 0 {
		id := algebra.ViewID(1 + g.rng.Intn(len(g.views)))
		cols := make([]cq.Term, g.views[id].Arity())
		for i := range cols {
			cols[i] = cq.Var(1 + g.rng.Intn(5))
		}
		return algebra.NewScan(id, cols)
	}
	switch g.rng.Intn(4) {
	case 0:
		in := g.gen(depth - 1)
		var conds []algebra.Cond
		for i := 1 + g.rng.Intn(2); i > 0; i-- {
			l, ok := g.varOf(in)
			if !ok {
				break
			}
			r, _ := g.varOf(in)
			if g.rng.Intn(2) == 0 {
				r = cq.Const(dict.ID(1 + g.rng.Intn(g.domain)))
			}
			conds = append(conds, algebra.Cond{Left: l, Right: r})
		}
		return algebra.NewSelect(in, conds...)
	case 1:
		return g.project(g.gen(depth-1), 1+g.rng.Intn(3))
	case 2:
		l, r := g.gen(depth-1), g.gen(depth-1)
		// Keep the nested-loop reference affordable: no join over inputs
		// whose pairing exceeds maxRefPairs.
		if refExecute(g.t, l, g.views).Len()*refExecute(g.t, r, g.views).Len() > maxRefPairs {
			return l
		}
		var conds []algebra.Cond
		lv, lok := g.varOf(l)
		rv, rok := g.varOf(r)
		if lok && rok && g.rng.Intn(2) == 0 {
			conds = append(conds, algebra.Cond{Left: lv, Right: rv})
		}
		return algebra.NewJoin(l, r, conds...)
	default:
		k := 1 + g.rng.Intn(3)
		branches := make([]algebra.Plan, 1+g.rng.Intn(3))
		for i := range branches {
			branches[i] = g.project(g.gen(depth-1), k)
		}
		return algebra.NewUnion(branches...)
	}
}

const maxRefPairs = 400000

// TestExecuteRandomPlansMatchRef is the property test of the rewriting
// executor: seeded random plan trees (depth ≤ 4: repeated scan labels,
// constant and column conditions, constant projection columns, 1–3-branch
// unions) must produce the reference's exact row multiset through
// ExecuteStream, collected and drained slab by slab.
func TestExecuteRandomPlansMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := &planGen{t: t, rng: rng, domain: 8, views: map[algebra.ViewID]*Relation{
		1: randomExtent(rng, []cq.Term{cq.Var(11), cq.Var(12)}, 300, 8),
		2: randomExtent(rng, []cq.Term{cq.Var(11), cq.Var(12)}, 180, 8),
		3: randomExtent(rng, []cq.Term{cq.Var(11), cq.Var(12), cq.Var(13)}, 250, 8),
		4: randomExtent(rng, []cq.Term{cq.Var(11), cq.Var(12), cq.Var(13)}, 120, 8),
	}}
	resolve := MapResolver(g.views)
	for i := 0; i < 200; i++ {
		plan := g.gen(4)
		want := refExecute(t, plan, g.views)
		got, err := execute(plan, resolve, ExecOptions{})
		if err != nil {
			t.Fatalf("plan %d %s: %v", i, plan, err)
		}
		sameRows(t, fmt.Sprintf("plan %d %s", i, plan), want, got)
		s, err := ExecuteStream(plan, resolve, ExecOptions{})
		if err != nil {
			t.Fatalf("plan %d %s: stream: %v", i, plan, err)
		}
		sameRows(t, fmt.Sprintf("plan %d %s streamed", i, plan), want, drainStream(t, "stream", s))
	}
}
