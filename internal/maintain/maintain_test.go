package maintain

import (
	"math/rand"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// union makes a view of its members.
func union(members ...*cq.Query) *cq.UCQ { return &cq.UCQ{Queries: members} }

func setup(t testing.TB) (*store.Store, map[algebra.ViewID]*cq.UCQ, *cq.Parser) {
	t.Helper()
	st := store.New()
	st.MustAddGraph(rdf.MustParse(`
u1 hasPainted starryNight .
u1 isParentOf u2 .
u2 hasPainted irises .
`))
	p := cq.NewParser(st.Dict())
	views := map[algebra.ViewID]*cq.UCQ{
		1: union(p.MustParseQuery("q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)")),
	}
	p.ResetNames()
	views[2] = union(p.MustParseQuery("q(A, B) :- t(A, hasPainted, B)"))
	return st, views, p
}

func TestInsertPropagatesToViews(t *testing.T) {
	st, views, _ := setup(t)
	m, err := New(st, views, 0)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := m.Extent(1)
	if v1.Len() != 1 { // (u1, irises)
		t.Fatalf("initial join view = %d rows", v1.Len())
	}
	// u2 paints sunflowers: both views gain a row.
	added, err := m.Insert(st.Encode(rdf.T("u2", "hasPainted", "sunflowers")))
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("added = %d, want 2", added)
	}
	v1, _ = m.Extent(1)
	if v1.Len() != 2 {
		t.Errorf("join view = %d rows, want 2", v1.Len())
	}
	// Duplicate insert: no change.
	added, err = m.Insert(st.Encode(rdf.T("u2", "hasPainted", "sunflowers")))
	if err != nil || added != 0 {
		t.Errorf("duplicate insert added %d (%v)", added, err)
	}
}

func TestInsertJoiningBothSides(t *testing.T) {
	st, views, _ := setup(t)
	m, err := New(st, views, 0)
	if err != nil {
		t.Fatal(err)
	}
	// New parent link makes u3 a parent of u2 (who paints irises).
	if _, err := m.Insert(st.Encode(rdf.T("u3", "isParentOf", "u2"))); err != nil {
		t.Fatal(err)
	}
	v1, _ := m.Extent(1)
	if v1.Len() != 2 {
		t.Fatalf("join view = %d rows, want 2", v1.Len())
	}
}

func TestDeleteWithRederivation(t *testing.T) {
	st, views, _ := setup(t)
	m, err := New(st, views, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two parents for u2: deleting one keeps (x, irises) for the other.
	if _, err := m.Insert(st.Encode(rdf.T("u9", "isParentOf", "u2"))); err != nil {
		t.Fatal(err)
	}
	v1, _ := m.Extent(1)
	if v1.Len() != 2 {
		t.Fatalf("rows = %d, want 2", v1.Len())
	}
	removed, err := m.Delete(st.Encode(rdf.T("u1", "isParentOf", "u2")))
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1 (only u1's derivation dies)", removed)
	}
	// Deleting the painting kills the remaining derivation everywhere.
	removed, err = m.Delete(st.Encode(rdf.T("u2", "hasPainted", "irises")))
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 { // one row in each view
		t.Fatalf("removed = %d, want 2", removed)
	}
	// Deleting an absent triple is a no-op.
	removed, err = m.Delete(st.Encode(rdf.T("nobody", "hasPainted", "nothing")))
	if err != nil || removed != 0 {
		t.Errorf("absent delete removed %d (%v)", removed, err)
	}
}

func TestResolverExecutesPlans(t *testing.T) {
	st, views, _ := setup(t)
	m, err := New(st, views, 0)
	if err != nil {
		t.Fatal(err)
	}
	head := views[2].Queries[0].Head
	plan := algebra.NewScan(2, head)
	rel, err := execute(plan, m.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("rows = %d", rel.Len())
	}
	if _, err := execute(algebra.NewScan(9, head), m.Resolver()); err == nil {
		t.Error("unknown view should fail")
	}
	if m.NumRows() != 3 {
		t.Errorf("NumRows = %d", m.NumRows())
	}
}

func TestNewRejectsInvalidView(t *testing.T) {
	st, _, _ := setup(t)
	bad := map[algebra.ViewID]*cq.UCQ{1: union(&cq.Query{Head: []cq.Term{cq.Var(1)}})}
	if _, err := New(st, bad, 0); err == nil {
		t.Fatal("invalid view accepted")
	}
}

// TestIncrementalMatchesRecompute is the central property: after any random
// sequence of inserts and deletes, every incrementally maintained extent
// equals a from-scratch materialization — over the flat layout and over a
// dual-partitioned one, where every delta routes to both partition sides —
// for plain views and for a view of several members (diffViews).
func TestIncrementalMatchesRecompute(t *testing.T) {
	layouts := []struct {
		name string
		st   *store.Store
	}{
		{"flat", store.New()},
		{"4x4-dual", store.NewDual(4, 4)},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) { incrementalMatchesRecompute(t, lay.st) })
	}
}

func incrementalMatchesRecompute(t *testing.T, st *store.Store) {
	rng := rand.New(rand.NewSource(77))
	subjects := []string{"a", "b", "c", "d"}
	props := []string{"p", "q", "isParentOf", "hasPainted"}

	views := diffViews(st)

	// Seed data.
	for i := 0; i < 15; i++ {
		st.Add(st.Encode(rdf.T(
			subjects[rng.Intn(len(subjects))],
			props[rng.Intn(len(props))],
			subjects[rng.Intn(len(subjects))])))
	}
	m, err := New(st, views, 0)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 120; step++ {
		tr := st.Encode(rdf.T(
			subjects[rng.Intn(len(subjects))],
			props[rng.Intn(len(props))],
			subjects[rng.Intn(len(subjects))]))
		if rng.Intn(2) == 0 {
			_, err = m.Insert(tr)
		} else {
			_, err = m.Delete(tr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if step%20 != 19 {
			continue
		}
		for id, v := range views {
			want, err := engine.MaterializeUCQ(st, v)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := m.Extent(id)
			if !got.EqualAsSet(want) {
				t.Fatalf("step %d view v%d: incremental %d rows, recompute %d rows\nview: %s",
					step, int(id), got.Len(), want.Len(), v.Format(st.Dict()))
			}
		}
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
