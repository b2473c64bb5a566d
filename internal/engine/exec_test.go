package engine

import (
	"strings"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// execute runs a rewriting plan through ExecuteStream and collects it.
func execute(p algebra.Plan, resolve ViewResolver, opts ExecOptions) (*Relation, error) {
	rs, err := ExecuteStream(p, resolve, opts)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

// Test fixtures: two small relations standing for materialized views.
//
//	v1(X1, X2): parent relation
//	v2(X2, X3): painted relation
func execFixture() (map[algebra.ViewID]*Relation, []cq.Term) {
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	v1 := relOf([]cq.Term{x1, x2}, Row{10, 20}, Row{11, 21}, Row{10, 22})
	v2 := relOf([]cq.Term{x2, x3}, Row{20, 100}, Row{20, 101}, Row{22, 102}, Row{30, 103})
	return map[algebra.ViewID]*Relation{1: v1, 2: v2}, []cq.Term{x1, x2, x3}
}

func TestExecuteScanSelectProject(t *testing.T) {
	views, vars := execFixture()
	x1, x2 := vars[0], vars[1]
	scan := algebra.NewScan(1, []cq.Term{x1, x2})
	sel := algebra.NewSelect(scan, algebra.Cond{Left: x1, Right: cq.Const(10)})
	proj := algebra.NewProject(sel, []cq.Term{x2})
	r, err := execute(proj, MapResolver(views), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 { // 20 and 22
		t.Fatalf("rows = %d, want 2", r.Len())
	}
}

func TestExecuteNaturalJoin(t *testing.T) {
	views, vars := execFixture()
	x1, x2, x3 := vars[0], vars[1], vars[2]
	join := algebra.NewJoin(
		algebra.NewScan(1, []cq.Term{x1, x2}),
		algebra.NewScan(2, []cq.Term{x2, x3}),
	)
	r, err := execute(join, MapResolver(views), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// (10,20)x(20,100),(20,101); (10,22)x(22,102): 3 rows; x2=21,30 unmatched.
	if r.Len() != 3 {
		t.Fatalf("rows = %d, want 3", r.Len())
	}
	if r.Arity() != 3 {
		t.Fatalf("arity = %d, want 3 (shared column exposed once)", r.Arity())
	}
}

func TestExecuteJoinExplicitCond(t *testing.T) {
	// Join-cut style: v1(X1, X2) ⋈[X2=X4] v2(X4, X3) with distinct labels.
	views, vars := execFixture()
	x1, x2, x3 := vars[0], vars[1], vars[2]
	x4 := cq.Var(4)
	// Relabel v2's first column to X4.
	join := algebra.NewJoin(
		algebra.NewScan(1, []cq.Term{x1, x2}),
		algebra.NewScan(2, []cq.Term{x4, x3}),
		algebra.Cond{Left: x2, Right: x4},
	)
	r, err := execute(join, MapResolver(views), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("rows = %d, want 3", r.Len())
	}
	if r.Arity() != 4 { // x1, x2, x4, x3 all kept
		t.Fatalf("arity = %d, want 4", r.Arity())
	}
	ix2, ix4 := r.ColIndex(x2), r.ColIndex(x4)
	for _, row := range rowsOf(r) {
		if row[ix2] != row[ix4] {
			t.Fatal("join condition violated")
		}
	}
}

func TestExecuteSelectColEqCol(t *testing.T) {
	x1, x2 := cq.Var(1), cq.Var(2)
	v := relOf([]cq.Term{x1, x2}, Row{5, 5}, Row{5, 6}, Row{7, 7})
	views := map[algebra.ViewID]*Relation{1: v}
	sel := algebra.NewSelect(algebra.NewScan(1, []cq.Term{x1, x2}),
		algebra.Cond{Left: x1, Right: x2})
	r, err := execute(sel, MapResolver(views), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("rows = %d, want 2", r.Len())
	}
}

func TestExecuteUnion(t *testing.T) {
	views, vars := execFixture()
	x1, x2 := vars[0], vars[1]
	u := algebra.NewUnion(
		algebra.NewScan(1, []cq.Term{x1, x2}),
		algebra.NewScan(1, []cq.Term{x1, x2}),
	)
	r, err := execute(u, MapResolver(views), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 { // duplicates collapse
		t.Fatalf("rows = %d, want 3", r.Len())
	}
}

func TestExecuteScanRepeatedLabelFilters(t *testing.T) {
	x1 := cq.Var(1)
	v := relOf([]cq.Term{cq.Var(10), cq.Var(11)}, Row{5, 5}, Row{5, 6})
	views := map[algebra.ViewID]*Relation{3: v}
	// Scan relabels both columns to X1: implicit equality filter.
	r, err := execute(algebra.NewScan(3, []cq.Term{x1, x1}), MapResolver(views), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("rows = %d, want 1", r.Len())
	}
}

func TestExecuteErrors(t *testing.T) {
	views, vars := execFixture()
	x1, x2 := vars[0], vars[1]
	resolve := MapResolver(views)
	cases := []algebra.Plan{
		algebra.NewScan(99, []cq.Term{x1, x2}), // unknown view
		algebra.NewScan(1, []cq.Term{x1}),      // arity mismatch
		algebra.NewSelect(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.Cond{Left: cq.Var(99), Right: cq.Const(1)}), // bad column
		algebra.NewProject(algebra.NewScan(1, []cq.Term{x1, x2}), []cq.Term{cq.Var(99)}),                             // bad column
		algebra.NewUnion(), // empty union
		algebra.NewUnion(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewProject(algebra.NewScan(1, []cq.Term{x1, x2}), []cq.Term{x1})), // arity mismatch
		algebra.NewJoin(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, cq.Var(3)}), algebra.Cond{Left: cq.Var(98), Right: cq.Var(97)}),
	}
	for i, p := range cases {
		if _, err := execute(p, resolve, ExecOptions{}); err == nil {
			t.Errorf("case %d (%s) should fail", i, p)
		}
	}
}

// countingRel counts nextBatch() calls on a wrapped operator, to observe
// whether a side of a join was drained at all.
type countingRel struct {
	in    operator
	calls int
}

func (c *countingRel) cols() []cq.Term { return c.in.cols() }
func (c *countingRel) nextBatch() (*batch, bool) {
	c.calls++
	return c.in.nextBatch()
}

// bigExtent builds an n-row two-column relation with join-friendly values.
func bigExtent(cols []cq.Term, n int) *Relation {
	r := NewRelation(cols)
	for i := 0; i < n; i++ {
		r.Append(Row{dict.ID(i), dict.ID(i % 97)})
	}
	return r
}

// TestExecuteJoinBuildSideChosen pins the cost-chosen build side: a build
// extent ≥8× the probe extent flips the join to build=left (both in
// DescribePlan's rendering and in execution, whose answers must not change),
// while the mirrored plan keeps the default build=right.
func TestExecuteJoinBuildSideChosen(t *testing.T) {
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	small := bigExtent([]cq.Term{x1, x2}, 10)
	big := bigExtent([]cq.Term{x2, x3}, 80) // 8× the probe side
	views := map[algebra.ViewID]*Relation{1: small, 2: big}
	card := func(id algebra.ViewID) float64 { return float64(views[id].Len()) }

	smallFirst := algebra.NewJoin(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3}))
	node, err := DescribePlan(smallFirst, card)
	if err != nil {
		t.Fatal(err)
	}
	if node.Build != "left" || !strings.Contains(node.String(), "build=left") {
		t.Fatalf("build extent 8× probe should plan build=left:\n%s", node)
	}
	if node.EstRows <= 0 {
		t.Fatalf("join node should carry an output estimate:\n%s", node)
	}
	bigFirst := algebra.NewJoin(algebra.NewScan(2, []cq.Term{x2, x3}), algebra.NewScan(1, []cq.Term{x1, x2}))
	node, err = DescribePlan(bigFirst, card)
	if err != nil {
		t.Fatal(err)
	}
	if node.Build != "right" {
		t.Fatalf("probe 8× build should keep build=right:\n%s", node)
	}

	// Answers are identical whichever side builds: compare against the
	// reference interpreter, which has no build side.
	for _, plan := range []algebra.Plan{smallFirst, bigFirst} {
		chosen, err := execute(plan, MapResolver(views), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, plan.String(), refExecute(t, plan, views), chosen)
	}
}

// TestExecuteEmptyProbeSkipsBuild pins the empty-probe fast path: when the
// probe side has no rows, the (possibly huge) build side is never drained,
// in both build orientations.
func TestExecuteEmptyProbeSkipsBuild(t *testing.T) {
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	empty := &viewScanOp{labels: []cq.Term{x1, x2}}
	counted := &countingRel{in: newViewScanOp(2, bigExtent([]cq.Term{x2, x3}, 1000), []cq.Term{x2, x3}, nil, 1000, nil)}
	shape, err := joinShape(empty.cols(), counted.cols(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// build=right: left probe is empty, the counted right build must not run.
	j := newHashJoinOp(empty, counted, shape, false, 0, 0, 0, nil)
	if _, ok := j.nextBatch(); ok {
		t.Fatal("join over empty probe returned a row")
	}
	if counted.calls != 0 {
		t.Fatalf("empty probe still drained the build side (%d nextBatch calls)", counted.calls)
	}
	if j.built {
		t.Fatal("empty probe still built the hash table")
	}

	// build=left: right probe is empty, the counted left build must not run.
	counted2 := &countingRel{in: newViewScanOp(1, bigExtent([]cq.Term{x1, x2}, 1000), []cq.Term{x1, x2}, nil, 1000, nil)}
	emptyRight := &viewScanOp{labels: []cq.Term{x2, x3}}
	shape2, err := joinShape(counted2.cols(), emptyRight.cols(), nil)
	if err != nil {
		t.Fatal(err)
	}
	j2 := newHashJoinOp(counted2, emptyRight, shape2, true, 0, 0, 0, nil)
	if _, ok := j2.nextBatch(); ok {
		t.Fatal("build-left join over empty probe returned a row")
	}
	if counted2.calls != 0 {
		t.Fatalf("empty probe still drained the build-left side (%d nextBatch calls)", counted2.calls)
	}

	// End to end: a zero-row view extent joined with a large one is empty.
	views := map[algebra.ViewID]*Relation{
		1: NewRelation([]cq.Term{x1, x2}),
		2: bigExtent([]cq.Term{x2, x3}, 1000),
	}
	r, err := execute(algebra.NewJoin(
		algebra.NewScan(1, []cq.Term{x1, x2}),
		algebra.NewScan(2, []cq.Term{x2, x3}),
	), MapResolver(views), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("join with empty extent = %d rows", r.Len())
	}
}

// TestUnionDedupHintSizedFromExtents pins the union dedup sizing: the
// RowIndex table of the union's seen rows is seeded from the resolved branch
// cardinalities (clamped by distinctSizeHint) instead of the historical fixed
// 64 slots.
func TestUnionDedupHintSizedFromExtents(t *testing.T) {
	x1, x2 := cq.Var(1), cq.Var(2)
	smallViews := map[algebra.ViewID]*Relation{1: bigExtent([]cq.Term{x1, x2}, 3)}
	bigViews := map[algebra.ViewID]*Relation{1: bigExtent([]cq.Term{x1, x2}, 5000)}
	tableSlots := func(views map[algebra.ViewID]*Relation) int {
		u := algebra.NewUnion(
			algebra.NewScan(1, []cq.Term{x1, x2}),
			algebra.NewScan(1, []cq.Term{x1, x2}),
		)
		op, _, err := compileRel(u, MapResolver(views).extent, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer closeOp(op)
		if _, ok := op.nextBatch(); !ok { // the dedup set is allocated on the first pull
			t.Fatal("empty union")
		}
		return len(op.(*projectOp).seen.slots)
	}
	small, big := tableSlots(smallViews), tableSlots(bigViews)
	if big <= small {
		t.Fatalf("union dedup table not sized from branch extents: %d slots for 10000-row branches vs %d for tiny ones", big, small)
	}
}

// TestUnionStreamsHintSizedFromEstimates is the store-path twin: a union of
// streams sizes its set from what its members' plans expect to produce, not
// from the caller's literal, so a union of scans over a large store starts
// with a table that holds them. The estimate is read off the union operator
// UnionStreams builds.
func TestUnionStreamsHintSizedFromEstimates(t *testing.T) {
	unionEst := func(streams []*RowStream, sizeHint int) float64 {
		u, err := UnionStreams(streams, sizeHint)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Close)
		return u.root.(*projectOp).est
	}
	members := func(triples int) []*RowStream {
		st := store.New()
		for i := 0; i < triples; i++ {
			st.Add(store.Triple{dict.ID(i + 1), dict.ID(i%3 + 1), dict.ID(i + 2)})
		}
		q := cq.NewParser(st.Dict()).MustParseQuery("q(X, P, Y) :- t(X, P, Y)")
		streams := make([]*RowStream, 2)
		for i := range streams {
			plan, err := PlanQuery(st, q)
			if err != nil {
				t.Fatal(err)
			}
			streams[i] = plan.EvalStream(ExecOptions{})
			t.Cleanup(streams[i].Close)
		}
		return streams
	}
	small, big := members(3), members(5000)
	if got := unionEst(small, 64); got != 64 {
		t.Fatalf("union of two 3-row scans sized for %v rows, want the caller's floor of 64", got)
	}
	if got := unionEst(big, 64); got < 2*5000 {
		t.Fatalf("union of two 5000-row scans sized for %v rows, want at least their sum", got)
	}
}

func TestSubstituteViewsSharing(t *testing.T) {
	_, vars := execFixture()
	x1, x2 := vars[0], vars[1]
	scan1 := algebra.NewScan(1, []cq.Term{x1, x2})
	scan2 := algebra.NewScan(2, []cq.Term{x2, vars[2]})
	join := algebra.NewJoin(scan1, scan2)
	replacement := algebra.NewSelect(algebra.NewScan(7, []cq.Term{x1, x2}))
	out := algebra.SubstituteViews(join, map[algebra.ViewID]algebra.Plan{1: replacement})
	j, ok := out.(*algebra.Join)
	if !ok {
		t.Fatal("substitution changed node type")
	}
	if j.Left != algebra.Plan(replacement) {
		t.Error("left not substituted")
	}
	if j.Right != algebra.Plan(scan2) {
		t.Error("right should be shared unchanged")
	}
	// No-op substitution returns the same tree.
	same := algebra.SubstituteViews(join, map[algebra.ViewID]algebra.Plan{9: replacement})
	if same != algebra.Plan(join) {
		t.Error("no-op substitution should share the tree")
	}
}

func TestPlanStringAndViews(t *testing.T) {
	_, vars := execFixture()
	x1, x2 := vars[0], vars[1]
	plan := algebra.NewProject(
		algebra.NewSelect(
			algebra.NewJoin(
				algebra.NewScan(1, []cq.Term{x1, x2}),
				algebra.NewUnion(algebra.NewScan(2, []cq.Term{x2, vars[2]}), algebra.NewScan(3, []cq.Term{x2, vars[2]})),
			),
			algebra.Cond{Left: x1, Right: cq.Const(5)},
		),
		[]cq.Term{x1},
	)
	if plan.String() == "" {
		t.Error("empty String")
	}
	ids := algebra.SortedViewIDs(plan)
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("SortedViewIDs = %v", ids)
	}
	cols := plan.Columns()
	if len(cols) != 1 || cols[0] != x1 {
		t.Errorf("Columns = %v", cols)
	}
}
