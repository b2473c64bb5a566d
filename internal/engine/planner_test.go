package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// assertSameAnswers checks pipeline, INL, and naive evaluation agree on q.
func assertSameAnswers(t *testing.T, st *store.Store, q *cq.Query) {
	t.Helper()
	got, err := Materialize(st, q)
	if err != nil {
		t.Fatalf("Materialize(%s): %v", q, err)
	}
	inl, err := evalQueryINL(st, q)
	if err != nil {
		t.Fatalf("evalQueryINL(%s): %v", q, err)
	}
	if !got.EqualAsSet(inl) {
		t.Fatalf("pipeline vs INL mismatch for %s: %d vs %d rows", q, got.Len(), inl.Len())
	}
	naive := naiveEval(st, q)
	if !got.EqualAsSet(naive) {
		t.Fatalf("pipeline vs naive mismatch for %s: %d vs %d rows", q, got.Len(), naive.Len())
	}
}

func TestPlanConstantOnlyHead(t *testing.T) {
	st, p := paintersStore(t)
	tag := cq.Const(st.Dict().EncodeIRI("tag"))
	// Head is a single constant: one row when the body matches, none when not.
	q := &cq.Query{Head: []cq.Term{tag}, Atoms: p.MustParseQuery("q(X) :- t(X, hasPainted, starryNight)").Atoms}
	r, err := Materialize(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.At(0, 0) != tag.ConstID() {
		t.Fatalf("constant head: got %d rows %v", r.Len(), rowsOf(r))
	}
	assertSameAnswers(t, st, q)

	empty := &cq.Query{Head: []cq.Term{tag}, Atoms: p.MustParseQuery("q(X) :- t(X, hasPainted, tag)").Atoms}
	r, err = Materialize(st, empty)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("constant head over empty match: got %d rows", r.Len())
	}
}

func TestPlanEmptyHeadBoolean(t *testing.T) {
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X) :- t(X, hasPainted, starryNight)")
	boolean := &cq.Query{Head: nil, Atoms: q.Atoms}
	r, err := Materialize(st, boolean)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("boolean true: got %d rows, want 1 empty row", r.Len())
	}
	no := &cq.Query{Head: nil, Atoms: p.MustParseQuery("q(X) :- t(X, hasPainted, nothingPaintedThis)").Atoms}
	r, err = Materialize(st, no)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("boolean false: got %d rows, want 0", r.Len())
	}
}

func TestPlanZeroMatches(t *testing.T) {
	st, p := paintersStore(t)
	for _, src := range []string{
		"q(X) :- t(X, hasPainted, guernica), t(X, hasPainted, starryNight)", // join with empty result
		"q(X, Y) :- t(X, neverUsedProp, Y)",                                 // unused property
		"q(X) :- t(X, isParentOf, X)",                                       // repeated var, no reflexive edges
	} {
		q := p.MustParseQuery(src)
		p.ResetNames()
		r, err := Materialize(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 0 {
			t.Fatalf("%s: got %d rows, want 0", src, r.Len())
		}
	}
}

func TestPlanTriangleSortBreakUsesSortMerge(t *testing.T) {
	// Triangle: the third atom shares two variables with the pipeline and
	// neither is the slot the pipeline is sorted on. With the explicit Sort
	// operator the planner re-sorts the (tiny) pipeline and merge-joins on
	// one shared variable with a residual equality on the other; with
	// sort-merge disabled it falls back to the historical hash join.
	st := store.New()
	d := st.Dict()
	enc := func(s string) cq.Term { return cq.Const(d.EncodeIRI(s)) }
	p0, p1, p2 := enc("p0"), enc("p1"), enc("p2")
	add := func(s, p, o cq.Term) {
		st.Add(store.Triple{s.ConstID(), p.ConstID(), o.ConstID()})
	}
	a, b, c, x, y := enc("a"), enc("b"), enc("c"), enc("x"), enc("y")
	add(a, p0, b)
	add(b, p1, c)
	add(c, p2, a) // closes the triangle a-b-c
	add(a, p0, x)
	add(x, p1, y) // path a-x-y, not closed: y has no p2 edge
	X, Y, Z := cq.Var(1), cq.Var(2), cq.Var(3)
	q := &cq.Query{
		Head: []cq.Term{X, Y, Z},
		Atoms: []cq.Atom{
			{X, p0, Y},
			{Y, p1, Z},
			{Z, p2, X},
		},
	}
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	sorts, merges := 0, 0
	for _, op := range plan.Describe().Operators() {
		switch op {
		case "Sort":
			sorts++
		case "MergeJoin":
			merges++
		}
	}
	if sorts == 0 || merges < 2 {
		t.Fatalf("triangle should sort-break into merge joins, got %d sorts, %d merges\n%s",
			sorts, merges, out)
	}
	if !strings.Contains(out, "residual=[") {
		t.Fatalf("two shared variables should leave a residual equality:\n%s", out)
	}
	r, err := plan.EvalStream(ExecOptions{}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("triangle matches = %d, want 1", r.Len())
	}
	if row := r.Row(0, nil); row[0] != a.ConstID() || row[1] != b.ConstID() || row[2] != c.ConstID() {
		t.Fatalf("wrong triangle: %v", row)
	}
	assertSameAnswers(t, st, q)
}

func TestPlanMergeJoinChosenForChain(t *testing.T) {
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.Describe().Operators()
	hasMerge := false
	for _, op := range ops {
		if op == "MergeJoin" {
			hasMerge = true
		}
	}
	if !hasMerge {
		t.Fatalf("chain should merge-join, got %v\n%s", ops, plan.Explain())
	}
	assertSameAnswers(t, st, q)
}

func TestPlanDuplicateEliminationAcrossJoinPaths(t *testing.T) {
	// u2 painted two works, u1 has two such grandchildren paths; projecting
	// away the intermediate variables must collapse the duplicates.
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	r, err := Materialize(st, q)
	if err != nil {
		t.Fatal(err)
	}
	// u1 (via u2's two works) and u3 (via u4) — u5's child paints nothing.
	if r.Len() != 2 {
		t.Fatalf("distinct parents = %d, want 2", r.Len())
	}
	assertSameAnswers(t, st, q)
}

func TestPlanCartesianProduct(t *testing.T) {
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X, Y) :- t(X, hasPainted, starryNight), t(Y, hasPainted, guernica)")
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.Describe().Operators()
	hasCross := false
	for _, op := range ops {
		if op == "CrossProduct" {
			hasCross = true
		}
	}
	if !hasCross {
		t.Fatalf("disconnected query should cross-product, got %v", ops)
	}
	r, err := plan.EvalStream(ExecOptions{}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 { // {u1, u5} × {u3}
		t.Fatalf("rows = %d, want 2", r.Len())
	}
	assertSameAnswers(t, st, q)
}

func TestPlanExplainRendersPermutationsAndJoins(t *testing.T) {
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	for _, want := range []string{"IndexScan", "perm=", "prefix=", "Project"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "MergeJoin") && !strings.Contains(out, "HashJoin") {
		t.Errorf("Explain shows no join operator:\n%s", out)
	}
}

func TestPlanVariablePredicates(t *testing.T) {
	st, p := paintersStore(t)
	for _, src := range []string{
		"q(X, P, Y) :- t(X, P, Y)",
		"q(X, P) :- t(X, P, Y), t(Y, P, Z)",             // shared predicate variable
		"q(X) :- t(X, P1, Y), t(X, P2, Z), t(Y, P3, W)", // star + chain mix
	} {
		q := p.MustParseQuery(src)
		p.ResetNames()
		assertSameAnswers(t, st, q)
	}
}

func TestPlanPipelineAgainstINLRandom(t *testing.T) {
	// Property: the planned pipeline — materialized and streamed — agrees with
	// the INL evaluator, multiset-exact, on random stores and random queries
	// of 1–4 atoms, whatever physical shape got planned. Two regimes: tiny
	// random stores under exact counts, then a skewed store (flat, 4-shard and
	// 4×4 dual) under randomly distorted counts — estimates only steer
	// operator choice, never answers, so distorting them walks the planner
	// through every operator the store-side pipeline shares with rewritings.
	rng := rand.New(rand.NewSource(99))
	planned := map[string]bool{}
	var record func(n *algebra.PhysNode)
	record = func(n *algebra.PhysNode) {
		planned[n.Op] = true
		if n.Build != "" {
			planned[n.Op+" build="+n.Build] = true
		}
		for _, c := range n.Children {
			record(c)
		}
	}
	check := func(label string, st *store.Store, q *cq.Query, cards Cards) {
		t.Helper()
		plan, err := PlanQueryWithStats(st, q, cards)
		if err != nil {
			t.Fatal(err)
		}
		record(plan.Describe())
		want, err := evalQueryINL(st, q)
		if err != nil {
			t.Fatal(err)
		}
		label += " " + q.Format(st.Dict()) + "\n" + plan.Explain()
		got, err := plan.EvalStream(ExecOptions{}).Collect()
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, label+"materialized", want, got)
		streamed, err := plan.EvalStream(ExecOptions{}).Collect()
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, label+"streamed", want, streamed)
	}

	for trial := 0; trial < 60; trial++ {
		st := store.New()
		d := st.Dict()
		for i := 0; i < 60; i++ {
			st.Add(store.Triple{
				d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(6))),
				d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(3))),
				d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(6))),
			})
		}
		q := randomConnectedQuery(rng, cq.NewParser(d), d, 1+rng.Intn(4))
		check(fmt.Sprintf("trial %d", trial), st, q, storeCards{st})
	}

	// The skewed store: 1100 subjects share the object s0 under p0, so a hash
	// join keyed on it walks one chain longer than BatchSize and emission
	// resumes across output batches (the two fixed queries below, one per
	// build side); s-nodes are subjects too, so chains continue through the
	// hub. (V, p2, s4) holds on three triples only: the disconnected atom that
	// makes a query a bounded cross product.
	flat := store.New()
	d := flat.Dict()
	node := func(i int) dict.ID { return d.EncodeIRI(fmt.Sprintf("n%d", i)) }
	hub := func(i int) dict.ID { return d.EncodeIRI(fmt.Sprintf("s%d", i)) }
	prop := func(i int) dict.ID { return d.EncodeIRI(fmt.Sprintf("p%d", i)) }
	for i := 0; i < 1100; i++ {
		flat.Add(store.Triple{node(i), prop(0), hub(0)})
	}
	for i := 0; i < 300; i++ {
		flat.Add(store.Triple{node(rng.Intn(1100)), prop(rng.Intn(2)), hub(rng.Intn(4))})
		flat.Add(store.Triple{node(rng.Intn(1100)), prop(rng.Intn(3)), node(rng.Intn(1100))})
	}
	for i := 0; i < 40; i++ {
		flat.Add(store.Triple{hub(rng.Intn(5)), prop(rng.Intn(3)), hub(rng.Intn(4))})
	}
	for i := 0; i < 3; i++ {
		flat.Add(store.Triple{node(i), prop(2), hub(4)})
		flat.Add(store.Triple{node(i), prop(1), hub(0)})
	}
	flat.Add(store.Triple{hub(0), prop(1), hub(1)})
	// Estimates placing the long chain in the hash table under either build
	// side: a sort break (the third atom shares only Y, the pipeline is sorted
	// on the first two's subject) where hashing beats sorting, with the
	// pipeline within, respectively beyond, buildLeftMargin of the atom.
	longChain := []struct {
		src, build string
		est        map[dict.ID]float64
	}{
		{"q(X, U, V) :- t(U, p1, Y), t(U, p2, V), t(X, p0, Y)", "build=right",
			map[dict.ID]float64{prop(1): 100, prop(2): 100, prop(0): 1100}},
		{"q(X, Y2, Z) :- t(X, p0, Y), t(X, p0, Y2), t(Y, p1, Z)", "build=left",
			map[dict.ID]float64{prop(0): 1000, prop(1): 20000}},
	}
	sharded := store.NewWithDictSharded(d, 4)
	sharded.AddBatch(flat.Triples())
	dual := store.NewWithDictDual(d, 4, 4)
	dual.AddBatch(flat.Triples())
	for layout, st := range map[string]*store.Store{"flat": flat, "4-shard": sharded, "4x4-dual": dual} {
		st.Count(store.Pattern{})
		distorted := cardsFunc(func(a cq.Atom) float64 {
			return storeCards{st}.AtomCount(a) * math.Exp2(float64(rng.Intn(13)-6))
		})
		p := cq.NewParser(d)
		for _, lc := range longChain {
			q := p.MustParseQuery(lc.src)
			p.ResetNames()
			est := cardsFunc(func(a cq.Atom) float64 { return lc.est[a[1].ConstID()] })
			if plan, _ := PlanQueryWithStats(st, q, est); plan == nil || !strings.Contains(plan.Explain(), lc.build) {
				t.Fatalf("%s: long-chain fixture no longer plans its hash join %s:\n%s", layout, lc.build, plan.Explain())
			}
			check(layout+" long chain", st, q, est)
		}
		for trial := 0; trial < 40; trial++ {
			q := randomConnectedQuery(rng, p, d, 1+rng.Intn(4))
			if len(q.Atoms) <= 2 && rng.Intn(3) == 0 {
				q.Atoms = append(q.Atoms, cq.Atom{p.FreshVar(), cq.Const(prop(2)), cq.Const(hub(4))})
			}
			check(fmt.Sprintf("%s trial %d", layout, trial), st, q, distorted)
			p.ResetNames()
		}
	}
	for _, shape := range []string{"MergeJoin", "Sort", "HashJoin build=left", "HashJoin build=right", "CrossProduct"} {
		if !planned[shape] {
			t.Errorf("no trial planned a %s: the property never exercised it", shape)
		}
	}
}

func TestPlanQueryValidates(t *testing.T) {
	st, _ := paintersStore(t)
	if _, err := PlanQuery(st, &cq.Query{}); err == nil {
		t.Error("empty body should fail")
	}
	if _, err := PlanQuery(st, &cq.Query{
		Head:  []cq.Term{cq.Var(9)},
		Atoms: []cq.Atom{{cq.Var(1), cq.Var(2), cq.Var(3)}},
	}); err == nil {
		t.Error("head variable not in body should fail")
	}
}

func TestDescribePlanRendersRewriting(t *testing.T) {
	_, vars := execFixture()
	x1, x2, x3 := vars[0], vars[1], vars[2]
	plan := algebra.NewProject(
		algebra.NewJoin(
			algebra.NewScan(1, []cq.Term{x1, x2}),
			algebra.NewScan(2, []cq.Term{x2, x3}),
		),
		[]cq.Term{x1, x3},
	)
	node, err := DescribePlan(plan, func(id algebra.ViewID) float64 { return 10 * float64(id) })
	if err != nil {
		t.Fatal(err)
	}
	out := node.String()
	for _, want := range []string{"Project", "HashJoin", "ViewScan v1", "ViewScan v2", "build=right"} {
		if !strings.Contains(out, want) {
			t.Errorf("DescribePlan missing %q:\n%s", want, out)
		}
	}
	// The physical description must agree with ExecuteStream's operator choices on
	// error cases too.
	if _, err := DescribePlan(algebra.NewUnion(), nil); err == nil {
		t.Error("empty union should fail")
	}
	if _, err := DescribePlan(algebra.NewSelect(
		algebra.NewScan(1, []cq.Term{x1}), algebra.Cond{Left: cq.Var(99), Right: cq.Const(1)}), nil); err == nil {
		t.Error("bad selection column should fail")
	}
}
