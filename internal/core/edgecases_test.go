package core

import (
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/rdf"
)

// TestJCSameAtomRepeatedVariable: a variable occurring twice within one atom
// (t(X, p, X)) forms a join edge from the node to itself; cutting it renames
// one occurrence and keeps the view connected.
func TestJCSameAtomRepeatedVariable(t *testing.T) {
	st, p, _ := paintersFixture(t)
	st.MustAddGraph(rdf.MustParse("loop selfLoves loop ."))
	q := p.MustParseQuery("q(X) :- t(X, selfLoves, X)")
	s0, ctx, err := InitialState([]*cq.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	var vid algebra.ViewID
	for id := range s0.Views {
		vid = id
	}
	jvars, occs := joinVarOccurrences(s0.Views[vid].Q)
	if len(jvars) != 1 || len(occs[jvars[0]]) != 2 {
		t.Fatalf("occurrences: %v", occs)
	}
	x := jvars[0]
	ns := ctx.applyJC(s0, vid, x, occs[x][1].atom, occs[x][1].pos)
	if ns == nil {
		t.Fatal("JC on self-edge not applicable")
	}
	if ns.NumViews() != 1 {
		t.Fatalf("self-edge cut must keep one view, got %d", ns.NumViews())
	}
	checkStateAnswers(t, st, ns, []*cq.Query{q})
}

// TestVFWithinOnePlan: fusing two views used by the same rewriting must
// substitute both occurrences correctly.
func TestVFWithinOnePlan(t *testing.T) {
	st, p, _ := paintersFixture(t)
	q := p.MustParseQuery("q(X, Z) :- t(X, isParentOf, Y), t(Y, isParentOf, Z)")
	queries := []*cq.Query{q}
	s0, ctx, err := InitialState(queries)
	if err != nil {
		t.Fatal(err)
	}
	var vid algebra.ViewID
	for id := range s0.Views {
		vid = id
	}
	// Cut the chain join: two isomorphic single-atom views joined in one plan.
	jvars, occs := joinVarOccurrences(s0.Views[vid].Q)
	y := jvars[0]
	s1 := ctx.applyJC(s0, vid, y, occs[y][0].atom, occs[y][0].pos)
	if s1 == nil || s1.NumViews() != 2 {
		t.Fatalf("JC split failed: %v", s1)
	}
	checkStateAnswers(t, st, s1, queries)
	s2 := ctx.avfClose(s1, nil)
	if s2.NumViews() != 1 {
		t.Fatalf("fusion within one plan left %d views:\n%s", s2.NumViews(), s2.Format())
	}
	checkStateAnswers(t, st, s2, queries)
}

// TestSCOnPropertyPosition: selection edges exist on any constant position,
// including p — relaxing the property is how the §3.3 statistics relaxations
// arise.
func TestSCOnPropertyPosition(t *testing.T) {
	st, p, _ := paintersFixture(t)
	q := p.MustParseQuery("q(X) :- t(X, hasPainted, starryNight)")
	queries := []*cq.Query{q}
	s0, ctx, err := InitialState(queries)
	if err != nil {
		t.Fatal(err)
	}
	var vid algebra.ViewID
	for id := range s0.Views {
		vid = id
	}
	ns := ctx.applySC(s0, vid, 0, 1) // cut the property constant
	if ns == nil {
		t.Fatal("SC on property position not applicable")
	}
	for _, v := range ns.SortedViews() {
		if !v.Q.Atoms[0][1].IsVar() {
			t.Error("property constant not relaxed")
		}
		if len(v.Q.Head) != 2 {
			t.Errorf("head should gain the fresh variable: %v", v.Q.Head)
		}
	}
	checkStateAnswers(t, st, ns, queries)
}

// TestSCTwiceSameConstant: the same constant at two positions forms two
// distinct selection edges; cutting both in sequence works and each cut
// keeps the rewritings equivalent.
func TestSCTwiceSameConstant(t *testing.T) {
	st, p, _ := paintersFixture(t)
	st.MustAddGraph(rdf.MustParse("u1 depicts starryNight ."))
	q := p.MustParseQuery("q(X) :- t(X, hasPainted, starryNight), t(X, depicts, starryNight)")
	queries := []*cq.Query{q}
	s0, ctx, err := InitialState(queries)
	if err != nil {
		t.Fatal(err)
	}
	var vid algebra.ViewID
	for id := range s0.Views {
		vid = id
	}
	edges := selectionEdges(s0.Views[vid].Q)
	if len(edges) != 4 { // hasPainted, starryNight (x2), depicts
		t.Fatalf("selection edges = %d, want 4", len(edges))
	}
	s1 := ctx.applySC(s0, vid, 0, 2) // starryNight in object position
	if s1 == nil {
		t.Fatal("first SC failed")
	}
	checkStateAnswers(t, st, s1, queries)
	var vid1 algebra.ViewID
	for _, id := range viewIDs(s1) {
		vid1 = id
	}
	s2 := ctx.applySC(s1, vid1, 1, 2) // starryNight in the second atom
	if s2 == nil {
		t.Fatal("second SC failed")
	}
	checkStateAnswers(t, st, s2, queries)
}

// TestVBOverlappingCoverKeepsSharedAtomVars: when the two covers overlap,
// all variables of the shared atoms must be exported by both parts
// (Definition 3.2's "additional variables appearing in the nodes Nv1 ∩ Nv2").
func TestVBOverlappingCoverKeepsSharedAtomVars(t *testing.T) {
	st, p, _ := paintersFixture(t)
	q := p.MustParseQuery(
		"q(Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	queries := []*cq.Query{q}
	s0, ctx, err := InitialState(queries)
	if err != nil {
		t.Fatal(err)
	}
	var vid algebra.ViewID
	for id := range s0.Views {
		vid = id
	}
	ns := ctx.applyVB(s0, vid, 0b011, 0b110) // overlap on the isParentOf atom
	if ns == nil {
		t.Fatal("VB failed")
	}
	for _, v := range ns.SortedViews() {
		hasParentAtom := false
		for _, a := range v.Q.Atoms {
			if a[1].IsConst() {
				if tm, err := st.Dict().Decode(a[1].ConstID()); err == nil && tm.Value == "isParentOf" {
					hasParentAtom = true
				}
			}
		}
		if hasParentAtom && len(v.Q.HeadVars()) < 2 {
			t.Errorf("shared-atom variables not exported: %v", v.Q.Format(st.Dict()))
		}
	}
	checkStateAnswers(t, st, ns, queries)
}

// TestDisjointVBOnExistentialJoinVariable: a disjoint cover whose parts
// share only an existential variable must still export it from both parts
// for the natural-join rewriting to be equivalent (the correctness-preserving
// reading of Definition 3.2: a join variable is exported even when the query
// projects it away).
func TestDisjointVBOnExistentialJoinVariable(t *testing.T) {
	st, p, _ := paintersFixture(t)
	// X is existential: head only has Z.
	q := p.MustParseQuery(
		"q(Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	queries := []*cq.Query{q}
	s0, ctx, err := InitialState(queries)
	if err != nil {
		t.Fatal(err)
	}
	var vid algebra.ViewID
	for id := range s0.Views {
		vid = id
	}
	// Disjoint split: {atom0} | {atom1, atom2}; shared var X is existential.
	ns := ctx.applyVB(s0, vid, 0b001, 0b110)
	if ns == nil {
		t.Fatal("disjoint VB failed")
	}
	checkStateAnswers(t, st, ns, queries)
}
