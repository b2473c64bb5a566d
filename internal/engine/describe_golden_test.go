package engine

import (
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
)

// describeGolden pins DescribePlan for the plans of rewriteMatrix(19), a
// union and a filtered projection over 2000-row extents, and a build=left
// join. The strings were rendered by the hand-written describe mirror this
// package used to keep beside compileRel, at the last commit that had it:
// Explain is now read off the compiled operators and must not have moved.
var describeGolden = map[string]string{
	"join": `HashJoin [X2=X2] build=right  (≈700 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v2[X2,X3] batch=1024  (≈700 rows)
`,
	"join-flipped": `HashJoin [X2=X2] build=right  (≈700 rows)
  ViewScan v2[X2,X3] batch=1024  (≈700 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
`,
	"join-cond": `HashJoin [X2=X3] build=right  (≈500 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v4[X3,X4] batch=1024  (≈500 rows)
`,
	"deep-join": `HashJoin [X3=X3] build=right  (≈500 rows)
  HashJoin [X2=X2] build=right  (≈700 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
    ViewScan v2[X2,X3] batch=1024  (≈700 rows)
  ViewScan v4[X3,X4] batch=1024  (≈500 rows)
`,
	"filter-join": `HashJoin [X2=X2] build=right  (≈450 rows)
  Filter [X1=#22]  (≈450 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v2[X2,X3] batch=1024  (≈700 rows)
`,
	"project": `Project [X2] distinct  (≈450 rows)
  Filter [X1=X2]  (≈450 rows)
    ViewScan v1[X1,X2] batch=1024  (≈900 rows)
`,
	"union": `Union distinct  (≈1300 rows)
  ViewScan v1[X1,X2] batch=1024  (≈900 rows)
  ViewScan v3[X1,X2] batch=1024  (≈400 rows)
`,
	"union-of-join": `Union distinct  (≈1800 rows)
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
	"project-union": `Project [X1,X3] distinct  (≈1100 rows)
  Union distinct  (≈1100 rows)
    HashJoin [X2=X2] build=right  (≈700 rows)
      ViewScan v1[X1,X2] batch=1024  (≈900 rows)
      ViewScan v2[X2,X3] batch=1024  (≈700 rows)
    HashJoin [X2=X2] build=right  (≈400 rows)
      ViewScan v3[X1,X2] batch=1024  (≈400 rows)
      ViewScan v2[X2,X3] batch=1024  (≈700 rows)
`,
	"large-union": `Union distinct  (≈4000 rows)
  HashJoin [X2=X2] build=right  (≈2000 rows)
    ViewScan v1[X1,X2] batch=1024  (≈2000 rows)
    ViewScan v2[X2,X3] batch=1024  (≈2000 rows)
  HashJoin [X2=X2] build=right  (≈2000 rows)
    ViewScan v3[X1,X2] batch=1024  (≈2000 rows)
    ViewScan v2[X2,X3] batch=1024  (≈2000 rows)
`,
	"large-project": `Project [X2] distinct  (≈1000 rows)
  Filter [X1=X2]  (≈1000 rows)
    ViewScan v1[X1,X2] batch=1024  (≈2000 rows)
`,
	"build-left": `HashJoin [X2=X2] build=left  (≈10 rows)
  ViewScan v1[X1,X2] batch=1024  (≈10 rows)
  ViewScan v2[X2,X3] batch=1024  (≈80 rows)
`,
}

// TestDescribeGoldenMatchesCompiled checks, per fixture, that Explain renders
// the golden plan from cardinalities alone, that the plan compiled against the
// real extents — what ExecuteStream runs — renders the same, and (walking
// operators and description side by side) that every build side it runs with
// is the one described.
func TestDescribeGoldenMatchesCompiled(t *testing.T) {
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
	large := map[algebra.ViewID]*Relation{
		1: bigExtent([]cq.Term{x1, x2}, 2000), 2: bigExtent([]cq.Term{x2, x3}, 2000), 3: bigExtent([]cq.Term{x1, x2}, 2000)}
	fixtures["large-union"] = fixture{algebra.NewUnion(algebra.NewJoin(v12(1), v23(2)), algebra.NewJoin(v12(3), v23(2))), large}
	fixtures["large-project"] = fixture{algebra.NewProject(algebra.NewSelect(v12(1), algebra.Cond{Left: x1, Right: x2}), []cq.Term{x2}), large}
	fixtures["build-left"] = fixture{algebra.NewJoin(v12(1), v23(2)), map[algebra.ViewID]*Relation{
		1: bigExtent([]cq.Term{x1, x2}, 10), 2: bigExtent([]cq.Term{x2, x3}, 80)}}

	for name, golden := range describeGolden {
		f, ok := fixtures[name]
		if !ok {
			t.Fatalf("no fixture for golden %q", name)
		}
		card := func(id algebra.ViewID) float64 { return float64(f.views[id].Len()) }
		node, err := DescribePlan(f.plan, card)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := node.String(); got != golden {
			t.Errorf("%s: Explain drifted:\n--- got\n%s--- want\n%s", name, got, golden)
		}
		root, _, err := compileRel(f.plan, MapResolver(f.views).extent, nil)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if got := describeOp(root).String(); got != golden {
			t.Errorf("%s: the executed plan is not the explained one:\n--- got\n%s--- want\n%s", name, got, golden)
		}
		checkDescribed(t, name, node, root)
	}
}

// checkDescribed walks a compiled operator tree beside its description: same
// operators, and each hash join building the side build= names.
func checkDescribed(t *testing.T, name string, n *algebra.PhysNode, o operator) {
	t.Helper()
	if p, ok := o.(*projectOp); ok && p.union {
		o = p.in
	}
	op, build := "", ""
	var kids []operator
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
		op, build, kids = "HashJoin", "right", []operator{o.left, o.right}
		if o.buildLeft {
			build = "left"
		}
	}
	if n.Op != op || n.Build != build || len(n.Children) != len(kids) {
		t.Fatalf("%s: compiled %T (build %q, %d inputs) is described as\n%s", name, o, build, len(kids), n)
	}
	for i, k := range kids {
		checkDescribed(t, name, n.Children[i], k)
	}
}

// unionLeafGolden pins the store-side Explain of a plan with union leaves
// (unionStore on Dual(2,2)): each leaf renders its frame atom and
// permutation, then ∪ and every alternative with the permutation it scans
// and the partitions it opens.
const unionLeafGolden = `Project [X1,X2]
  MergeJoin [X1]  (≈4 rows)
    MergeJoin [X1]  (≈4 rows)
      IndexScan t(#1, #409, X1) perm=spo prefix=2 shards=1/2 batch=1024  (≈4 rows)
      IndexScan t(X1, #2, #3) perm=pos prefix=2 ∪{t(X1, #2, #3) perm=pos shards=1/2, t(X1, #2, #4) perm=pos shards=1/2, t(X1, #5, X900) perm=pso shards=2/2, t(X900, #13, X1) perm=pos shards=2/2}  (≈481 rows)
    IndexScan t(X1, #9, X2) perm=pso prefix=1 ∪{t(X1, #9, X2) perm=pso shards=2/2, t(X1, #11, X2) perm=pso shards=2/2}  (≈495 rows)
`

// TestDescribeGoldenUnionLeaf checks the union-leaf rendering against its
// golden.
func TestDescribeGoldenUnionLeaf(t *testing.T) {
	st, p := unionStore(2, 2)
	d := st.Dict()
	q := p.MustParseQuery("q(Y, Z) :- t(n0, far, Y), t(Y, rdf:type, c), t(Y, p, Z)")
	alts := [][]cq.Atom{{q.Atoms[0]}, typeAlts(d, q.Atoms[1][0], cq.Var(900)), propAlts(d, q.Atoms[2][0], q.Atoms[2][2])}
	plan, err := PlanQueryAlts(st, q, alts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Explain(); got != unionLeafGolden {
		t.Errorf("union-leaf Explain drifted:\n--- got\n%s--- want\n%s", got, unionLeafGolden)
	}
}
