package engine

import (
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
)

// describeGolden pins DescribePlan at DOP 1 and 4 for the plans of
// rewriteMatrix(19), the fixtures of TestDescribeParallelAnnotations and a
// build=left join. The strings were rendered by the hand-written describe
// mirror this package used to keep beside compileRel, at the last commit
// that had it: Explain is now read off the compiled operators and must not
// have moved.
var describeGolden = map[string]map[int]string{
	"join": {
		1: `HashJoin [X2=X2] build=right  (≈700 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v2[X2,X3] batch=1024  (≈700 rows)
`,
		4: `HashJoin [X2=X2] build=right dop=4 batch=1024  (≈700 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v2[X2,X3] batch=1024  (≈700 rows)
`,
	},
	"join-flipped": {
		1: `HashJoin [X2=X2] build=right  (≈700 rows)
  ViewScan v2[X2,X3] batch=1024  (≈700 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
`,
		4: `HashJoin [X2=X2] build=right dop=4 batch=1024  (≈700 rows)
  ViewScan v2[X2,X3] batch=1024  (≈700 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
`,
	},
	"join-cond": {
		1: `HashJoin [X2=X3] build=right  (≈500 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v4[X3,X4] batch=1024  (≈500 rows)
`,
		4: `HashJoin [X2=X3] build=right dop=4 batch=1024  (≈500 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v4[X3,X4] batch=1024  (≈500 rows)
`,
	},
	"deep-join": {
		1: `HashJoin [X3=X3] build=right  (≈500 rows)
  HashJoin [X2=X2] build=right  (≈700 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
    ViewScan v2[X2,X3] batch=1024  (≈700 rows)
  ViewScan v4[X3,X4] batch=1024  (≈500 rows)
`,
		4: `HashJoin [X3=X3] build=right dop=4 batch=1024  (≈500 rows)
  HashJoin [X2=X2] build=right dop=4 batch=1024  (≈700 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
    ViewScan v2[X2,X3] batch=1024  (≈700 rows)
  ViewScan v4[X3,X4] batch=1024  (≈500 rows)
`,
	},
	"filter-join": {
		1: `HashJoin [X2=X2] build=right  (≈450 rows)
  Filter [X1=#22]  (≈450 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v2[X2,X3] batch=1024  (≈700 rows)
`,
		4: `HashJoin [X2=X2] build=right dop=4 batch=1024  (≈450 rows)
  Filter [X1=#22]  (≈450 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v2[X2,X3] batch=1024  (≈700 rows)
`,
	},
	"project": {
		1: `Project [X2] distinct  (≈450 rows)
  Filter [X1=X2]  (≈450 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
`,
		4: `Project [X2] distinct  (≈450 rows)
  Filter [X1=X2] dop=4 batch=1024  (≈450 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
`,
	},
	"union": {
		1: `Union distinct  (≈1300 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v3[X1,X2] batch=1024  (≈400 rows)
`,
		4: `Union distinct dop=2 batch=1024  (≈1300 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v3[X1,X2] batch=1024  (≈400 rows)
`,
	},
	"union-of-join": {
		1: `Union distinct  (≈1800 rows)
  HashJoin [X2=X2] build=right  (≈700 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
    ViewScan v2[X2,X3] batch=1024  (≈700 rows)
  HashJoin [X2=X2] build=right  (≈400 rows)
    ViewScan v3[X1,X2] batch=1024  (≈400 rows)
    ViewScan v2[X2,X3] batch=1024  (≈700 rows)
  HashJoin [X2=X2] build=right  (≈700 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
    ViewScan v2[X2,X3] batch=1024  (≈700 rows)
`,
		4: `Union distinct dop=3 batch=1024  (≈1800 rows)
  HashJoin [X2=X2] build=right dop=4 batch=1024  (≈700 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
    ViewScan v2[X2,X3] batch=1024  (≈700 rows)
  HashJoin [X2=X2] build=right dop=4 batch=1024  (≈400 rows)
    ViewScan v3[X1,X2] batch=1024  (≈400 rows)
    ViewScan v2[X2,X3] batch=1024  (≈700 rows)
  HashJoin [X2=X2] build=right dop=4 batch=1024  (≈700 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
    ViewScan v2[X2,X3] batch=1024  (≈700 rows)
`,
	},
	"project-union": {
		1: `Project [X1,X3] distinct  (≈1100 rows)
  Union distinct  (≈1100 rows)
    HashJoin [X2=X2] build=right  (≈700 rows)
      ViewScan v1[X1,X2] batch=1024  (≈900 rows)
      ViewScan v2[X2,X3] batch=1024  (≈700 rows)
    HashJoin [X2=X2] build=right  (≈400 rows)
      ViewScan v3[X1,X2] batch=1024  (≈400 rows)
      ViewScan v2[X2,X3] batch=1024  (≈700 rows)
`,
		4: `Project [X1,X3] distinct  (≈1100 rows)
  Union distinct dop=2 batch=1024  (≈1100 rows)
    HashJoin [X2=X2] build=right dop=4 batch=1024  (≈700 rows)
      ViewScan v1[X1,X2] batch=1024  (≈900 rows)
      ViewScan v2[X2,X3] batch=1024  (≈700 rows)
    HashJoin [X2=X2] build=right dop=4 batch=1024  (≈400 rows)
      ViewScan v3[X1,X2] batch=1024  (≈400 rows)
      ViewScan v2[X2,X3] batch=1024  (≈700 rows)
`,
	},
	"annot-union": {
		1: `Union distinct  (≈4000 rows)
  HashJoin [X2=X2] build=right  (≈2000 rows)
    ViewScan v1[X1,X2] batch=1024  (≈2000 rows)
    ViewScan v2[X2,X3] batch=1024  (≈2000 rows)
  HashJoin [X2=X2] build=right  (≈2000 rows)
    ViewScan v3[X1,X2] batch=1024  (≈2000 rows)
    ViewScan v2[X2,X3] batch=1024  (≈2000 rows)
`,
		4: `Union distinct dop=2 batch=1024  (≈4000 rows)
  HashJoin [X2=X2] build=right dop=4 batch=1024  (≈2000 rows)
    ViewScan v1[X1,X2] batch=1024  (≈2000 rows)
    ViewScan v2[X2,X3] batch=1024  (≈2000 rows)
  HashJoin [X2=X2] build=right dop=4 batch=1024  (≈2000 rows)
    ViewScan v3[X1,X2] batch=1024  (≈2000 rows)
    ViewScan v2[X2,X3] batch=1024  (≈2000 rows)
`,
	},
	"annot-project": {
		1: `Project [X2] distinct  (≈1000 rows)
  Filter [X1=X2]  (≈1000 rows)
    ViewScan v1[X1,X2] batch=1024  (≈2000 rows)
`,
		4: `Project [X2] distinct  (≈1000 rows)
  Filter [X1=X2] dop=4 batch=1024  (≈1000 rows)
    ViewScan v1[X1,X2] batch=1024  (≈2000 rows)
`,
	},
	"build-left": {
		1: `HashJoin [X2=X2] build=left  (≈10 rows)
  ViewScan v1[X1,X2] batch=1024  (≈10 rows)
  ViewScan v2[X2,X3] batch=1024  (≈80 rows)
`,
		4: `HashJoin [X2=X2] build=left dop=4 batch=1024  (≈10 rows)
  ViewScan v1[X1,X2] batch=1024  (≈10 rows)
  ViewScan v2[X2,X3] batch=1024  (≈80 rows)
`,
	},
}

// TestDescribeGoldenMatchesCompiled checks, per fixture and DOP, that Explain
// renders the golden plan from cardinalities alone, that the plan compiled
// against the real extents — what ExecuteStream runs — renders the same, and
// (walking operators and description side by side) that every exchange,
// partitioned join and build side it runs with is the one described.
func TestDescribeGoldenMatchesCompiled(t *testing.T) {
	forceParallelRewrite(t)
	type fixture struct {
		plan  algebra.Plan
		views map[algebra.ViewID]*Relation
	}
	views, plans := rewriteMatrix(19)
	fixtures := make(map[string]fixture, len(describeGolden))
	for name, p := range plans {
		fixtures[name] = fixture{p, views}
	}
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	v12 := func(id algebra.ViewID) *algebra.Scan { return algebra.NewScan(id, []cq.Term{x1, x2}) }
	v23 := func(id algebra.ViewID) *algebra.Scan { return algebra.NewScan(id, []cq.Term{x2, x3}) }
	annot := map[algebra.ViewID]*Relation{
		1: bigExtent([]cq.Term{x1, x2}, 2000), 2: bigExtent([]cq.Term{x2, x3}, 2000), 3: bigExtent([]cq.Term{x1, x2}, 2000)}
	fixtures["annot-union"] = fixture{algebra.NewUnion(algebra.NewJoin(v12(1), v23(2)), algebra.NewJoin(v12(3), v23(2))), annot}
	fixtures["annot-project"] = fixture{algebra.NewProject(algebra.NewSelect(v12(1), algebra.Cond{Left: x1, Right: x2}), []cq.Term{x2}), annot}
	fixtures["build-left"] = fixture{algebra.NewJoin(v12(1), v23(2)), map[algebra.ViewID]*Relation{
		1: bigExtent([]cq.Term{x1, x2}, 10), 2: bigExtent([]cq.Term{x2, x3}, 80)}}

	for name, want := range describeGolden {
		f, ok := fixtures[name]
		if !ok {
			t.Fatalf("no fixture for golden %q", name)
		}
		card := func(id algebra.ViewID) float64 { return float64(f.views[id].Len()) }
		for dop, golden := range want {
			opts := ExecOptions{DOP: dop}
			node, err := DescribePlan(f.plan, card, opts)
			if err != nil {
				t.Fatalf("%s dop=%d: %v", name, dop, err)
			}
			if got := node.String(); got != golden {
				t.Errorf("%s dop=%d: Explain drifted:\n--- got\n%s--- want\n%s", name, dop, got, golden)
			}
			root, _, err := compileRel(f.plan, MapResolver(f.views).extent, opts)
			if err != nil {
				t.Fatalf("%s dop=%d: compile: %v", name, dop, err)
			}
			if got := describeOp(root).String(); got != golden {
				t.Errorf("%s dop=%d: the executed plan is not the explained one:\n--- got\n%s--- want\n%s", name, dop, got, golden)
			}
			checkDescribed(t, name, node, root)
		}
	}
}

// checkDescribed walks a compiled operator tree beside its description: same
// operators, an exchange or partitioned join exactly where dop= is rendered,
// and each hash join building the side build= names.
func checkDescribed(t *testing.T, name string, n *algebra.PhysNode, o operator) {
	t.Helper()
	if p, ok := o.(*projectOp); ok && p.union {
		o = p.in
	}
	dop := 0
	if e, ok := o.(*exchangeOp); ok {
		dop, o = e.workers, e.over
	}
	op, build := "", ""
	var kids []operator
	join := func(j *hashJoin) {
		op, build, kids = "HashJoin", "right", []operator{j.left, j.right}
		if j.buildLeft {
			build = "left"
		}
	}
	switch o := o.(type) {
	case *viewScanOp:
		op = "ViewScan"
	case *filterOp:
		op, kids = "Filter", []operator{o.in}
	case *projectOp:
		op, kids = "Project", []operator{o.in}
	case *concatOp:
		op, kids = "Union", o.branches
	case *hashJoinOp:
		join(&o.hashJoin)
	case *parallelHashJoinOp:
		join(&o.hashJoin)
		dop = o.dop
	}
	if n.Op != op || n.DOP != dop || n.Build != build || len(n.Children) != len(kids) {
		t.Fatalf("%s: compiled %T (dop %d, build %q, %d inputs) is described as\n%s", name, o, dop, build, len(kids), n)
	}
	for i, k := range kids {
		checkDescribed(t, name, n.Children[i], k)
	}
}
