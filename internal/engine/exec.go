package engine

import (
	"context"
	"fmt"
	"math"
	"strings"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// ViewResolver supplies the materialized extension of each view a plan scans.
type ViewResolver func(algebra.ViewID) (*Relation, error)

// MapResolver builds a ViewResolver from a map.
func MapResolver(m map[algebra.ViewID]*Relation) ViewResolver {
	return func(id algebra.ViewID) (*Relation, error) {
		r, ok := m[id]
		if !ok {
			return nil, fmt.Errorf("engine: no materialization for view v%d", int(id))
		}
		return r, nil
	}
}

// ExecOptions tunes execution of both engines: the rewriting executor
// (ExecuteStream) and the store-side pipeline (QueryPlan.EvalStream). The zero
// value is uncancellable execution, the default everywhere. Either engine
// runs a query on its caller's goroutine.
type ExecOptions struct {
	// Ctx, when non-nil, cancels the execution: operators poll its Done
	// channel at per-batch checkpoints and stop scanning, and the drain
	// surfaces ctx.Err(). nil (the zero value) executes to completion.
	Ctx context.Context
}

// extent is the leaf source of an executing plan: the resolved view, whose
// row count is also its exact cardinality.
func (resolve ViewResolver) extent(n *algebra.Scan) (*Relation, float64, error) {
	base, err := resolve(n.View)
	if err != nil {
		return nil, 0, err
	}
	if len(n.Cols) != base.Arity() {
		return nil, 0, fmt.Errorf("engine: scan of v%d relabels %d columns, view has %d",
			int(n.View), len(n.Cols), base.Arity())
	}
	return base, float64(base.Len()), nil
}

// compileRel compiles a plan node to its batch operator and the node's
// estimated output cardinality. extent supplies each leaf's relation and
// cardinality — exact when executing; Explain supplies cardinalities alone,
// which costs nothing because operators touch their input only when pulled.
// Inner estimates use the same containment-style arithmetic the store planner
// uses. The estimates drive the hash joins' cost-chosen build sides and the
// dedup size hints. intr (nil for uncancellable executions) reaches the
// operators that loop without returning control: view scans and hash-join
// build drains.
func compileRel(p algebra.Plan, extent func(*algebra.Scan) (*Relation, float64, error), intr *interrupt) (operator, float64, error) {
	switch n := p.(type) {
	case *algebra.Scan:
		rel, card, err := extent(n)
		if err != nil {
			return nil, 0, err
		}
		eq := repeatedLabelPairs(n.Cols)
		est := scanEst(card, len(eq))
		return newViewScanOp(n.View, rel, n.Cols, eq, est, intr), est, nil
	case *algebra.Select:
		in, est, err := compileRel(n.Input, extent, intr)
		if err != nil {
			return nil, 0, err
		}
		tests, err := compileConds(in.cols(), n.Conds)
		if err != nil {
			return nil, 0, err
		}
		est = condsEst(est, len(n.Conds))
		return &filterOp{in: in, tests: tests, conds: n.Conds, est: est}, est, nil
	case *algebra.Project:
		in, est, err := compileRel(n.Input, extent, intr)
		if err != nil {
			return nil, 0, err
		}
		op, err := newProjectOp(in, n.Cols, est)
		if err != nil {
			return nil, 0, err
		}
		return op, est, nil
	case *algebra.Join:
		left, lest, err := compileRel(n.Left, extent, intr)
		if err != nil {
			return nil, 0, err
		}
		right, rest, err := compileRel(n.Right, extent, intr)
		if err != nil {
			return nil, 0, err
		}
		shape, err := joinShape(left.cols(), right.cols(), n.Conds)
		if err != nil {
			return nil, 0, err
		}
		est := joinOutEst(lest, rest, len(shape.keys))
		return newHashJoinOp(left, right, shape, cost.HashJoinBuildLeft(lest, rest), lest, rest, est, intr), est, nil
	case *algebra.Union:
		branches := make([]operator, len(n.Branches))
		for i, b := range n.Branches {
			in, _, err := compileRel(b, extent, intr)
			if err != nil {
				return nil, 0, err
			}
			branches[i] = in
		}
		op, err := newUnion(branches, 0, interrupts{intr})
		if err != nil {
			return nil, 0, err
		}
		return op, op.est, nil
	default:
		return nil, 0, fmt.Errorf("engine: unknown plan node %T", p)
	}
}

func termIndex(cols []cq.Term, t cq.Term) int {
	for i, c := range cols {
		if c == t {
			return i
		}
	}
	return -1
}

// condsEst discounts an input estimate for equality conditions. With no
// per-column statistics on the extent surface each condition is charged a
// flat 1/2 selectivity — crude, but enough to order build sides and size
// dedup sets, and never read as exact.
func condsEst(est float64, conds int) float64 {
	for i := 0; i < conds && est > 1; i++ {
		est /= 2
	}
	return est
}

// scanEst estimates a view scan's output: the extent cardinality, discounted
// to its square root per repeated-label equality filter (the same
// √n-distinct reading storeCards applies to repeated-variable atoms).
func scanEst(rows float64, eqPairs int) float64 {
	for i := 0; i < eqPairs; i++ {
		rows = math.Sqrt(rows)
	}
	return rows
}

func repeatedLabelPairs(cols []cq.Term) [][2]int {
	var out [][2]int
	first := make(map[cq.Term]int, len(cols))
	for i, c := range cols {
		if j, ok := first[c]; ok {
			out = append(out, [2]int{j, i})
		} else {
			first[c] = i
		}
	}
	return out
}

// condTest is a compiled equality condition: column li equals column ri, or
// the constant c when ri < 0.
type condTest struct {
	li, ri int
	c      dict.ID
}

func compileConds(cols []cq.Term, conds []algebra.Cond) ([]condTest, error) {
	tests := make([]condTest, 0, len(conds))
	for _, c := range conds {
		li := termIndex(cols, c.Left)
		if li < 0 {
			return nil, fmt.Errorf("engine: selection column %v not in %v", c.Left, cols)
		}
		if c.Right.IsConst() {
			tests = append(tests, condTest{li: li, ri: -1, c: c.Right.ConstID()})
			continue
		}
		ri := termIndex(cols, c.Right)
		if ri < 0 {
			return nil, fmt.Errorf("engine: selection column %v not in %v", c.Right, cols)
		}
		tests = append(tests, condTest{li: li, ri: ri})
	}
	return tests, nil
}

// keyPair is one join key: left column li must equal right column ri.
type keyPair struct{ li, ri int }

// joinShapeInfo is the compiled shape of a natural-plus-conditions join:
// join keys, output columns (all left columns, then the right columns whose
// labels the left side does not already expose), and the kept right indexes.
type joinShapeInfo struct {
	keys      []keyPair
	outCols   []cq.Term
	rightKeep []int
}

func joinShape(leftCols, rightCols []cq.Term, conds []algebra.Cond) (joinShapeInfo, error) {
	var sh joinShapeInfo
	// Join keys: shared labels (natural join) plus explicit conditions.
	for li, c := range leftCols {
		if !c.IsVar() {
			continue
		}
		if ri := termIndex(rightCols, c); ri >= 0 && termIndex(leftCols, c) == li {
			sh.keys = append(sh.keys, keyPair{li, ri})
		}
	}
	for _, c := range conds {
		li := termIndex(leftCols, c.Left)
		ri := termIndex(rightCols, c.Right)
		if li < 0 || ri < 0 {
			return sh, fmt.Errorf("engine: join condition %v over %v ⋈ %v", c, leftCols, rightCols)
		}
		sh.keys = append(sh.keys, keyPair{li, ri})
	}
	sh.outCols = append([]cq.Term(nil), leftCols...)
	for ri, c := range rightCols {
		if c.IsVar() && termIndex(leftCols, c) >= 0 {
			continue
		}
		sh.rightKeep = append(sh.rightKeep, ri)
		sh.outCols = append(sh.outCols, c)
	}
	return sh, nil
}

// DescribePlan renders a rewriting plan's physical shape without touching
// view extents: the plan is compiled exactly as ExecuteStream compiles it,
// against leaves that carry only the cardinalities card supplies (may be
// nil), and the compiled operators describe themselves. It is the explain
// surface for rewritings, as QueryPlan.Describe is for store-level queries.
func DescribePlan(p algebra.Plan, card func(algebra.ViewID) float64) (*algebra.PhysNode, error) {
	root, _, err := compileRel(p, func(n *algebra.Scan) (*Relation, float64, error) {
		if card == nil {
			return nil, 0, nil
		}
		return nil, card(n.View), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return describeOp(root), nil
}

// describeOp renders a compiled rewriting operator tree from the fields the
// operators execute with: every node carries its estimated output
// cardinality, and hash joins their chosen build side.
func describeOp(o operator) *algebra.PhysNode {
	switch o := o.(type) {
	case *viewScanOp:
		detail := fmt.Sprintf("v%d[%s]", int(o.view), joinStrings(o.labels, ","))
		if len(o.eq) > 0 {
			detail += fmt.Sprintf(" +%d equality filters", len(o.eq))
		}
		node := algebra.NewPhysNode("ViewScan", detail, o.est)
		node.Batch = BatchSize
		return node
	case *filterOp:
		return algebra.NewPhysNode("Filter", "["+joinStrings(o.conds, "&")+"]", o.est, describeOp(o.in))
	case *projectOp:
		if o.union {
			return describeOp(o.in)
		}
		return algebra.NewPhysNode("Project", "["+joinStrings(o.labels, ",")+"] distinct", o.est, describeOp(o.in))
	case *concatOp:
		children := make([]*algebra.PhysNode, len(o.branches))
		for i, b := range o.branches {
			children[i] = describeOp(b)
		}
		return algebra.NewPhysNode("Union", "distinct", o.est, children...)
	case *hashJoinOp:
		return o.describe()
	}
	panic(fmt.Sprintf("engine: no description for operator %T", o))
}

func (j *hashJoinOp) describe() *algebra.PhysNode {
	left, right := describeOp(j.left), describeOp(j.right)
	if len(j.shape.keys) == 0 {
		return algebra.NewPhysNode("CrossProduct", "", j.est, left, right)
	}
	lcols, rcols := j.left.cols(), j.right.cols()
	parts := make([]string, len(j.shape.keys))
	for i, k := range j.shape.keys {
		parts[i] = fmt.Sprintf("%s=%s", lcols[k.li], rcols[k.ri])
	}
	node := algebra.NewPhysNode("HashJoin", "["+strings.Join(parts, "&")+"]", j.est, left, right)
	node.Build = "right"
	if j.buildLeft {
		node.Build = "left"
	}
	return node
}

// joinStrings renders the elements with their String methods, sep-separated.
func joinStrings[T fmt.Stringer](xs []T, sep string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = x.String()
	}
	return strings.Join(parts, sep)
}
