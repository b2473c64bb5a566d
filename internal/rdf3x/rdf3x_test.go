package rdf3x

import (
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
	"rdfviews/internal/workload"
)

func fixture(t testing.TB) (*store.Store, *Engine, *cq.Parser) {
	t.Helper()
	st := store.New()
	st.MustAddGraph(rdf.MustParse(`
u1 hasPainted starryNight .
u1 isParentOf u2 .
u2 hasPainted irises .
u3 hasPainted guernica .
u1 rdf:type painter .
u2 rdf:type painter .
`))
	return st, New(st), cq.NewParser(st.Dict())
}

func TestCountMatchesStore(t *testing.T) {
	st, e, _ := fixture(t)
	if e.Len() != st.Len() {
		t.Fatalf("Len %d != %d", e.Len(), st.Len())
	}
	painted, _ := st.Dict().LookupIRI("hasPainted")
	u1, _ := st.Dict().LookupIRI("u1")
	irises, _ := st.Dict().LookupIRI("irises")
	pats := []store.Pattern{
		{},
		{u1, store.Wildcard, store.Wildcard},
		{store.Wildcard, painted, store.Wildcard},
		{store.Wildcard, store.Wildcard, irises},
		{u1, painted, store.Wildcard},
		{store.Wildcard, painted, irises},
		{u1, store.Wildcard, irises},
		{u1, painted, irises},
	}
	for _, p := range pats {
		if got, want := e.Count(p), st.Count(p); got != want {
			t.Errorf("Count(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestEvaluateMatchesEngine(t *testing.T) {
	st, e, p := fixture(t)
	queries := []string{
		"q(X) :- t(X, hasPainted, Y)",
		"q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)",
		"q(X) :- t(X, rdf:type, painter), t(X, hasPainted, starryNight)",
		"q(X, P) :- t(X, P, starryNight)",
	}
	for _, qs := range queries {
		p.ResetNames()
		q := p.MustParseQuery(qs)
		got, err := e.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.Materialize(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsSet(want) {
			t.Errorf("%s: rdf3x %d rows, engine %d rows", qs, got.Len(), want.Len())
		}
	}
}

func TestEvaluateInvalidQuery(t *testing.T) {
	_, e, _ := fixture(t)
	bad := &cq.Query{Head: []cq.Term{cq.Var(9)}, Atoms: []cq.Atom{{cq.Var(1), cq.Const(1), cq.Var(2)}}}
	if _, err := e.Evaluate(bad); err == nil {
		t.Fatal("invalid query should fail")
	}
}

func TestEvaluateOnGeneratedWorkload(t *testing.T) {
	st, _ := datagen.Generate(datagen.Config{Triples: 3000, Seed: 11})
	e := New(st)
	qs, err := workload.GenerateSatisfiable(st, workload.Spec{Queries: 5, AtomsPerQuery: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		got, err := e.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.Materialize(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsSet(want) {
			t.Errorf("query %d: rdf3x %d rows, engine %d", i, got.Len(), want.Len())
		}
		if got.Len() == 0 {
			t.Errorf("query %d unsatisfiable", i)
		}
	}
}
