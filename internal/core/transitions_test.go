package core

import (
	"math/rand"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/stats"
	"rdfviews/internal/store"
)

// paintersFixture builds the running-example store, workload and estimator.
func paintersFixture(t testing.TB) (*store.Store, *cq.Parser, *cost.Estimator) {
	t.Helper()
	st := store.New()
	st.MustAddGraph(rdf.MustParse(`
u1 hasPainted starryNight .
u1 isParentOf u2 .
u2 hasPainted irises .
u2 hasPainted sunflowers .
u3 isParentOf u4 .
u3 hasPainted guernica .
u4 hasPainted lesDemoiselles .
u5 hasPainted starryNight .
u5 isParentOf u6 .
u6 rdf:type painter .
`))
	p := cq.NewParser(st.Dict())
	est := cost.NewEstimator(stats.NewStoreStats(st), cost.DefaultWeights())
	return st, p, est
}

// checkStateAnswers materializes every view of the state on the store and
// verifies that executing each rewriting plan returns exactly the answers of
// the corresponding workload query — the rewriting-equivalence requirement
// of Definition 2.2, which every transition must preserve. A transition
// leaves its rewrite pending, so the plans are built first.
func checkStateAnswers(t *testing.T, st *store.Store, s *State, queries []*cq.Query) {
	t.Helper()
	s.build()
	if len(s.Plans) != len(queries) {
		t.Fatalf("%d plans for %d queries\nstate:\n%s", len(s.Plans), len(queries), s.Format())
	}
	mats := make(map[algebra.ViewID]*engine.Relation, s.NumViews())
	for _, v := range s.SortedViews() {
		id := v.ID
		r, err := engine.Materialize(st, v.Q)
		if err != nil {
			t.Fatalf("materialize v%d: %v", int(id), err)
		}
		mats[id] = r
	}
	resolve := engine.MapResolver(mats)
	for i, plan := range s.Plans {
		got, err := execute(plan, resolve)
		if err != nil {
			t.Fatalf("execute plan %d (%s): %v\nstate:\n%s", i, plan, err, s.Format())
		}
		want, err := engine.Materialize(st, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsSet(want) {
			t.Fatalf("plan %d not equivalent to query:\nplan: %s\ngot %d rows, want %d\nstate:\n%s",
				i, plan, got.Len(), want.Len(), s.Format())
		}
	}
}

func paperQuery(p *cq.Parser) *cq.Query {
	return p.MustParseQuery(
		"q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)")
}

// TestPaperFigure1Walkthrough replays the transition sequence of Figure 1:
// S0 --VB--> S1 --SC--> S2 --JC--> (x2) S3 --VF--> (x2) S4, checking the
// view structure and rewriting equivalence at every step.
func TestPaperFigure1Walkthrough(t *testing.T) {
	st, p, _ := paintersFixture(t)
	q1 := paperQuery(p)
	queries := []*cq.Query{q1}
	s0, ctx, err := InitialState(queries)
	if err != nil {
		t.Fatal(err)
	}
	if s0.NumViews() != 1 {
		t.Fatalf("S0 views = %d", s0.NumViews())
	}
	checkStateAnswers(t, st, s0, queries)

	// VB: v1 breaks into v2 = {atom0, atom1} and v3 = {atom1, atom2}
	// (overlapping on the isParentOf atom, as in the figure).
	var vid algebra.ViewID
	for id := range s0.Views {
		vid = id
	}
	s1 := ctx.applyVB(s0, vid, 0b011, 0b110)
	if s1 == nil {
		t.Fatal("VB not applicable")
	}
	if s1.NumViews() != 2 {
		t.Fatalf("S1 views = %d", s1.NumViews())
	}
	if s1.Stage != StageVB {
		t.Fatalf("S1 stage = %v", s1.Stage)
	}
	checkStateAnswers(t, st, s1, queries)

	// SC on the starryNight selection edge of the 2-atom view containing it.
	var v2 *View
	for _, v := range s1.SortedViews() {
		for _, e := range selectionEdges(v.Q) {
			c := v.Q.Atoms[e.atom][e.pos]
			if tm, err := st.Dict().Decode(c.ConstID()); err == nil && tm.Value == "starryNight" {
				v2 = v
			}
		}
	}
	if v2 == nil {
		t.Fatal("no view holds the starryNight constant")
	}
	var scEdge selEdge
	for _, e := range selectionEdges(v2.Q) {
		c := v2.Q.Atoms[e.atom][e.pos]
		if tm, _ := st.Dict().Decode(c.ConstID()); tm.Value == "starryNight" {
			scEdge = e
		}
	}
	s2 := ctx.applySC(s1, v2.ID, scEdge.atom, scEdge.pos)
	if s2 == nil {
		t.Fatal("SC not applicable")
	}
	if s2.Stage != StageSC {
		t.Fatalf("S2 stage = %v", s2.Stage)
	}
	checkStateAnswers(t, st, s2, queries)

	// JC on the s=s join edge of the relaxed view v4 — the view graph
	// disconnects, producing v5 and v6 (4 views total).
	var v4 *View
	for _, v := range s2.SortedViews() {
		// the relaxed view t(X, hasPainted, W), t(X, isParentOf, Y) is the
		// one whose two atoms share their subject variable.
		if v.Q.Len() == 2 && v.Q.Atoms[0][0] == v.Q.Atoms[1][0] {
			v4 = v
		}
	}
	if v4 == nil {
		t.Fatalf("relaxed view not found in:\n%s", s2.Format())
	}
	jvars, occs := joinVarOccurrences(v4.Q)
	if len(jvars) != 1 {
		t.Fatalf("v4 join vars = %d, want 1", len(jvars))
	}
	x := jvars[0]
	s3a := ctx.applyJC(s2, v4.ID, x, occs[x][0].atom, occs[x][0].pos)
	if s3a == nil {
		t.Fatal("JC not applicable")
	}
	if s3a.NumViews() != 3 {
		t.Fatalf("after first JC: %d views, want 3", s3a.NumViews())
	}
	checkStateAnswers(t, st, s3a, queries)

	// Second JC on the o=s edge of v3 (isParentOf ⋈ hasPainted): S3.
	var v3 *View
	for _, v := range s3a.SortedViews() {
		if v.Q.Len() == 2 {
			v3 = v
		}
	}
	if v3 == nil {
		t.Fatalf("two-atom view v3 missing:\n%s", s3a.Format())
	}
	jv3, occ3 := joinVarOccurrences(v3.Q)
	if len(jv3) != 1 {
		t.Fatalf("v3 join vars = %d", len(jv3))
	}
	y := jv3[0]
	s3 := ctx.applyJC(s3a, v3.ID, y, occ3[y][0].atom, occ3[y][0].pos)
	if s3 == nil {
		t.Fatal("second JC failed")
	}
	if s3.NumViews() != 4 {
		t.Fatalf("S3 views = %d, want 4", s3.NumViews())
	}
	checkStateAnswers(t, st, s3, queries)

	// Two VFs fuse the isomorphic single-atom views: S4 has 2 views
	// (v9 = fused hasPainted views, v10 = fused isParentOf views).
	s4 := ctx.avfClose(s3, nil)
	if s4.NumViews() != 2 {
		t.Fatalf("S4 views = %d, want 2:\n%s", s4.NumViews(), s4.Format())
	}
	checkStateAnswers(t, st, s4, queries)
}

func TestApplySCRejectsNonEdges(t *testing.T) {
	_, p, _ := paintersFixture(t)
	q := paperQuery(p)
	s0, ctx, _ := InitialState([]*cq.Query{q})
	var vid algebra.ViewID
	for id := range s0.Views {
		vid = id
	}
	if ctx.applySC(s0, vid, 0, 0) != nil { // subject is a variable
		t.Error("SC on a variable position should fail")
	}
	if ctx.applySC(s0, vid, 99, 0) != nil {
		t.Error("SC on missing atom should fail")
	}
	if ctx.applySC(s0, 999, 0, 1) != nil {
		t.Error("SC on missing view should fail")
	}
}

func TestApplyJCConnectedCase(t *testing.T) {
	st, p, _ := paintersFixture(t)
	// Triangle: cutting one edge keeps the graph connected.
	q := p.MustParseQuery("q(X) :- t(X, isParentOf, Y), t(Y, hasPainted, Z), t(X, hasPainted, Z)")
	queries := []*cq.Query{q}
	s0, ctx, err := InitialState(queries)
	if err != nil {
		t.Fatal(err)
	}
	var vid algebra.ViewID
	for id := range s0.Views {
		vid = id
	}
	v := s0.Views[vid]
	// Cut Z at its occurrence in atom 1 (object): graph stays connected via X.
	var z cq.Term
	jvars, occs := joinVarOccurrences(v.Q)
	for _, jv := range jvars {
		if len(occs[jv]) == 2 && occs[jv][0].pos == 2 && occs[jv][1].pos == 2 {
			z = jv
		}
	}
	if z == 0 {
		t.Fatalf("Z join var not found; vars=%v", jvars)
	}
	ns := ctx.applyJC(s0, vid, z, occs[z][0].atom, occs[z][0].pos)
	if ns == nil {
		t.Fatal("JC not applicable")
	}
	if ns.NumViews() != 1 {
		t.Fatalf("connected JC should keep one view, got %d", ns.NumViews())
	}
	for _, nv := range ns.SortedViews() {
		if len(nv.Q.Head) != len(v.Q.Head)+2 {
			t.Errorf("connected JC head should gain X and X': %v", nv.Q.Head)
		}
	}
	checkStateAnswers(t, st, ns, queries)
}

func TestApplyVBRequiresValidCover(t *testing.T) {
	_, p, _ := paintersFixture(t)
	q := paperQuery(p)
	s0, ctx, _ := InitialState([]*cq.Query{q})
	var vid algebra.ViewID
	for id := range s0.Views {
		vid = id
	}
	cases := []struct {
		m1, m2 uint32
		why    string
	}{
		{0b001, 0b010, "not a cover"},
		{0b111, 0b001, "m2 contained in m1"},
		{0b001, 0b111, "m1 contained in m2"},
		{0b101, 0b010, "m1 disconnected (atoms 0 and 2 share no var)"},
	}
	for _, c := range cases {
		if ctx.applyVB(s0, vid, c.m1, c.m2) != nil {
			t.Errorf("VB should reject %s", c.why)
		}
	}
	// Two-atom views admit no VB (|Nv| > 2 required).
	p.ResetNames()
	q2 := p.MustParseQuery("q(X) :- t(X, hasPainted, Y), t(X, isParentOf, Z)")
	s2, ctx2, _ := InitialState([]*cq.Query{q2})
	var vid2 algebra.ViewID
	for _, id := range viewIDs(s2) {
		vid2 = id
	}
	if ctx2.applyVB(s2, vid2, 0b01, 0b10) != nil {
		t.Error("VB on 2-atom view should fail")
	}
}

func TestApplyVFPaperSemantics(t *testing.T) {
	st, p, _ := paintersFixture(t)
	// Two queries with isomorphic bodies but different heads.
	q1 := p.MustParseQuery("q(X) :- t(X, hasPainted, Y)")
	p.ResetNames()
	q2 := p.MustParseQuery("q(Y) :- t(X, hasPainted, Y)")
	queries := []*cq.Query{q1, q2}
	s0, ctx, err := InitialState(queries)
	if err != nil {
		t.Fatal(err)
	}
	ids := viewIDs(s0)
	ns := ctx.applyVF(s0, ids[0], ids[1])
	if ns == nil {
		t.Fatal("VF not applicable")
	}
	if ns.NumViews() != 1 {
		t.Fatalf("VF should leave one view, got %d", ns.NumViews())
	}
	for _, v := range ns.SortedViews() {
		if len(v.Q.Head) != 2 {
			t.Errorf("fused head should have 2 vars: %v", v.Q.Head)
		}
	}
	if ns.Stage != StageVF {
		t.Errorf("stage = %v", ns.Stage)
	}
	checkStateAnswers(t, st, ns, queries)
}

func TestApplyVFRejectsNonIsomorphic(t *testing.T) {
	_, p, _ := paintersFixture(t)
	q1 := p.MustParseQuery("q(X) :- t(X, hasPainted, Y)")
	p.ResetNames()
	q2 := p.MustParseQuery("q(X) :- t(X, isParentOf, Y)")
	s0, ctx, _ := InitialState([]*cq.Query{q1, q2})
	ids := viewIDs(s0)
	if ctx.applyVF(s0, ids[0], ids[1]) != nil {
		t.Error("VF on different constants should fail")
	}
	if ctx.applyVF(s0, ids[0], ids[0]) != nil {
		t.Error("VF of a view with itself should fail")
	}
}

// TestTransitionsPreserveRewritingEquivalence is the central safety property
// of the search: on random workloads, every state reachable within a small
// budget answers exactly like the original queries.
func TestTransitionsPreserveRewritingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st, p, _ := paintersFixture(t)
	props := []string{"hasPainted", "isParentOf", rdf.RDFType}
	consts := []string{"starryNight", "irises", "painter", "u2"}
	for trial := 0; trial < 12; trial++ {
		p.ResetNames()
		var queries []*cq.Query
		for qi := 0; qi < 1+rng.Intn(2); qi++ {
			q := randomWorkloadQuery(rng, p, props, consts, 2+rng.Intn(2))
			queries = append(queries, q)
			p.ResetNames()
		}
		s0, ctx, err := InitialState(queries)
		if err != nil {
			t.Fatal(err)
		}
		// Random walk of up to 6 transitions.
		cur := s0
		for step := 0; step < 6; step++ {
			var succ []*State
			for k := StageVB; k <= StageVF; k++ {
				ctx.enumKind(k, cur, func(ns *State) bool {
					succ = append(succ, ns)
					return len(succ) < 40
				})
			}
			if len(succ) == 0 {
				break
			}
			cur = succ[rng.Intn(len(succ))]
			checkStateAnswers(t, st, cur, queries)
		}
	}
}

func randomWorkloadQuery(rng *rand.Rand, p *cq.Parser, props, consts []string, n int) *cq.Query {
	vars := []cq.Term{p.FreshVar()}
	var atoms []cq.Atom
	for i := 0; i < n; i++ {
		s := vars[rng.Intn(len(vars))]
		var o cq.Term
		if rng.Intn(2) == 0 {
			o = cq.Const(p.Dict.EncodeIRI(consts[rng.Intn(len(consts))]))
		} else {
			o = p.FreshVar()
			vars = append(vars, o)
		}
		prop := cq.Const(p.Dict.EncodeIRI(props[rng.Intn(len(props))]))
		atoms = append(atoms, cq.Atom{s, prop, o})
	}
	head := []cq.Term{vars[0]}
	for _, v := range vars[1:] {
		if rng.Intn(2) == 0 {
			head = append(head, v)
		}
	}
	return &cq.Query{Head: head, Atoms: atoms}
}

func TestStopConditionPredicates(t *testing.T) {
	_, p, _ := paintersFixture(t)
	q := p.MustParseQuery("q(X, Y, Z) :- t(X, Y, Z)")
	s0, _, err := InitialState([]*cq.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if !s0.HasAllVariableView() || !s0.HasTripleTableView() {
		t.Error("triple-table view not detected")
	}
	p.ResetNames()
	q2 := p.MustParseQuery("q(X) :- t(X, P, Y), t(Y, Q2, Z)")
	s2, _, _ := InitialState([]*cq.Query{q2})
	if !s2.HasAllVariableView() {
		t.Error("all-variable multi-atom view not detected")
	}
	if s2.HasTripleTableView() {
		t.Error("multi-atom view is not the triple table")
	}
	p.ResetNames()
	q3 := paperQuery(p)
	s3, _, _ := InitialState([]*cq.Query{q3})
	if s3.HasAllVariableView() || s3.HasTripleTableView() {
		t.Error("constant-bearing view misclassified")
	}
}

func TestInitialStateValidation(t *testing.T) {
	_, p, _ := paintersFixture(t)
	if _, _, err := InitialState(nil); err == nil {
		t.Error("empty workload must fail")
	}
	q := p.MustParseQuery("q(X, A) :- t(X, hasPainted, Y), t(A, isParentOf, B)")
	if _, _, err := InitialState([]*cq.Query{q}); err == nil {
		t.Error("cartesian-product query must fail")
	}
}

// execute runs a rewriting plan through engine.ExecuteStream and collects it.
func execute(p algebra.Plan, resolve engine.ViewResolver) (*engine.Relation, error) {
	rs, err := engine.ExecuteStream(p, resolve, engine.ExecOptions{})
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}
