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
// (Execute) and the store-side pipeline (QueryPlan.EvalWithOptions). The zero
// value is serial execution, the default everywhere.
type ExecOptions struct {
	// DOP is the degree of parallelism parallel-eligible rewriting operators
	// run at: a hash join partitions its build extent into DOP key-hash
	// partitions built concurrently and fans its probe stream out over DOP
	// worker goroutines; a union evaluates up to DOP branches concurrently.
	// 0 or 1 keeps every operator serial.
	DOP int

	// Ctx, when non-nil, cancels the execution: operators poll its Done
	// channel at per-batch checkpoints and stop scanning, and the drain
	// surfaces ctx.Err(). nil (the zero value) executes to completion.
	Ctx context.Context

	// intr is the per-execution cancellation token derived from Ctx by the
	// entry points (cancel.go); compile recursions thread it by value.
	intr *interrupt
}

// parallelRewriteMinRows is the estimated operator input size below which
// fanning rewriting execution out over goroutines is not worth the channel
// and copy overhead. Variable so tests can force the parallel operators on
// small fixtures.
var parallelRewriteMinRows = 1024.0

// Execute evaluates a rewriting plan over materialized views. This is the
// query-answering path of the three-tier deployment scenario: workload
// queries run against the recommended views only, with no access to the
// triple store (Section 1). The logical plan is compiled to a pipeline of
// batch operators (vec_exec.go) — view scans, filters, hash joins,
// deduplicating projections and unions — and drained once; all structural
// validation happens at compile time.
func Execute(p algebra.Plan, resolve ViewResolver) (*Relation, error) {
	return ExecuteWithOptions(p, resolve, ExecOptions{})
}

// ExecuteWithOptions is Execute with explicit execution options; the zero
// value reproduces Execute exactly. With DOP > 1 large hash joins run with
// partitioned parallel builds and fanned-out probe streams, and union
// branches evaluate concurrently (see ExecOptions.DOP); answers are
// identical at every DOP. Output rows are arena-gathered from the root's
// batches, or appended directly when the root operator offers the sink fast
// path.
func ExecuteWithOptions(p algebra.Plan, resolve ViewResolver, opts ExecOptions) (*Relation, error) {
	opts.intr = newInterrupt(opts.Ctx)
	root, _, err := compileVecRel(p, resolve, opts)
	if err != nil {
		return nil, err
	}
	defer closeVop(root) // release parallel workers on every exit path
	out := NewRelation(root.cols())
	if s, ok := root.(vecSink); ok {
		s.drainInto(out)
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		return out, nil
	}
	w := len(root.cols())
	var arena rowArena
	for {
		b, ok := root.nextBatch()
		if !ok {
			break
		}
		for _, i := range b.liveSel() {
			row := arena.alloc(w)
			for c := 0; c < w; c++ {
				row[c] = b.cols[c][i]
			}
			out.Rows = append(out.Rows, row)
		}
	}
	if err := opts.ctxErr(); err != nil {
		return nil, err
	}
	return out, nil
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

// DescribePlan compiles a rewriting plan's physical shape without touching
// view extents: the same operator choices Execute makes, with per-scan
// cardinalities supplied by card (may be nil). It is the explain surface for
// rewritings, mirroring QueryPlan.Describe for store-level queries.
func DescribePlan(p algebra.Plan, card func(algebra.ViewID) float64) (*algebra.PhysNode, error) {
	return DescribePlanWithOptions(p, card, ExecOptions{})
}

// DescribePlanWithOptions is DescribePlan under explicit execution options:
// with DOP > 1 the hash joins and unions that would run partitioned/parallel
// are annotated with their degree of parallelism, mirroring
// ExecuteWithOptions' thresholds on the supplied estimates.
func DescribePlanWithOptions(p algebra.Plan, card func(algebra.ViewID) float64, opts ExecOptions) (*algebra.PhysNode, error) {
	_, node, _, err := describeRel(p, card, opts)
	return node, err
}

// selectChainOverScan reports whether the plan is a chain of selections
// bottoming out at a view scan — the shape that compiles to a splittable
// vecFilterOp, which compileVecRel wraps in a parallel exchange under an
// eligible projection.
func selectChainOverScan(p algebra.Plan) bool {
	s, ok := p.(*algebra.Select)
	if !ok {
		return false
	}
	for {
		switch in := s.Input.(type) {
		case *algebra.Select:
			s = in
		case *algebra.Scan:
			return true
		default:
			return false
		}
	}
}

// describeRel mirrors compileVecRel symbolically: same shapes, same estimate
// arithmetic, same build-side and parallelism choices, but leaf cardinalities
// come from card instead of resolved extents. Every node carries its
// estimated output cardinality; hash joins carry their chosen build side.
func describeRel(p algebra.Plan, card func(algebra.ViewID) float64, opts ExecOptions) ([]cq.Term, *algebra.PhysNode, float64, error) {
	switch n := p.(type) {
	case *algebra.Scan:
		est := 0.0
		if card != nil {
			est = card(n.View)
		}
		labels := make([]string, len(n.Cols))
		for i, c := range n.Cols {
			labels[i] = c.String()
		}
		detail := fmt.Sprintf("v%d[%s]", int(n.View), strings.Join(labels, ","))
		eq := repeatedLabelPairs(n.Cols)
		if len(eq) > 0 {
			detail += fmt.Sprintf(" +%d equality filters", len(eq))
			est = scanEst(est, len(eq))
		}
		node := algebra.NewPhysNode("ViewScan", detail, est)
		node.Batch = BatchSize
		return n.Cols, node, est, nil
	case *algebra.Select:
		cols, child, est, err := describeRel(n.Input, card, opts)
		if err != nil {
			return nil, nil, 0, err
		}
		if _, err := compileConds(cols, n.Conds); err != nil {
			return nil, nil, 0, err
		}
		parts := make([]string, len(n.Conds))
		for i, c := range n.Conds {
			parts[i] = c.String()
		}
		est = condsEst(est, len(n.Conds))
		return cols, algebra.NewPhysNode("Filter", "["+strings.Join(parts, "&")+"]", est, child), est, nil
	case *algebra.Project:
		cols, child, est, err := describeRel(n.Input, card, opts)
		if err != nil {
			return nil, nil, 0, err
		}
		for _, c := range n.Cols {
			if c.IsVar() && termIndex(cols, c) < 0 {
				return nil, nil, 0, fmt.Errorf("engine: projection column %v not in %v", c, cols)
			}
		}
		labels := make([]string, len(n.Cols))
		for i, c := range n.Cols {
			labels[i] = c.String()
		}
		// Mirror compileVecRel's exchange under a deduplicating projection: a
		// large filter over a splittable extent scan fans out over DOP
		// workers, so its Filter node carries the dop annotation.
		if opts.DOP > 1 && est >= parallelRewriteMinRows && selectChainOverScan(n.Input) {
			child.DOP = opts.DOP
			child.Batch = BatchSize
		}
		return n.Cols, algebra.NewPhysNode("Project",
			"["+strings.Join(labels, ",")+"] distinct", est, child), est, nil
	case *algebra.Join:
		lcols, lnode, lest, err := describeRel(n.Left, card, opts)
		if err != nil {
			return nil, nil, 0, err
		}
		rcols, rnode, rest, err := describeRel(n.Right, card, opts)
		if err != nil {
			return nil, nil, 0, err
		}
		sh, err := joinShape(lcols, rcols, n.Conds)
		if err != nil {
			return nil, nil, 0, err
		}
		parts := make([]string, len(sh.keys))
		for i, k := range sh.keys {
			parts[i] = fmt.Sprintf("%s=%s", lcols[k.li], rcols[k.ri])
		}
		est := joinOutEst(lest, rest, len(sh.keys))
		op, detail := "HashJoin", "["+strings.Join(parts, "&")+"]"
		if len(sh.keys) == 0 {
			op, detail = "CrossProduct", ""
		}
		node := algebra.NewPhysNode(op, detail, est, lnode, rnode)
		if op == "HashJoin" {
			node.Build = "right"
			if cost.HashJoinBuildLeft(lest, rest) {
				node.Build = "left"
			}
		}
		if opts.DOP > 1 && lest+rest >= parallelRewriteMinRows {
			node.DOP = opts.DOP
			node.Batch = BatchSize
		}
		return sh.outCols, node, est, nil
	case *algebra.Union:
		if len(n.Branches) == 0 {
			return nil, nil, 0, fmt.Errorf("engine: empty union")
		}
		var cols []cq.Term
		sum := 0.0
		children := make([]*algebra.PhysNode, len(n.Branches))
		for i, b := range n.Branches {
			bcols, bnode, best, err := describeRel(b, card, opts)
			if err != nil {
				return nil, nil, 0, err
			}
			if i == 0 {
				cols = bcols
			} else if len(bcols) != len(cols) {
				return nil, nil, 0, fmt.Errorf("engine: union arity mismatch: %d vs %d", len(bcols), len(cols))
			}
			children[i] = bnode
			sum += best
		}
		node := algebra.NewPhysNode("Union", "distinct", sum, children...)
		if opts.DOP > 1 && len(n.Branches) > 1 && sum >= parallelRewriteMinRows {
			node.DOP = min(opts.DOP, len(n.Branches))
			node.Batch = BatchSize
		}
		return cols, node, sum, nil
	default:
		return nil, nil, 0, fmt.Errorf("engine: unknown plan node %T", p)
	}
}
