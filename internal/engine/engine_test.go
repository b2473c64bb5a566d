package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

func paintersStore(t testing.TB) (*store.Store, *cq.Parser) {
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
`))
	return st, cq.NewParser(st.Dict())
}

func TestEvalQueryPaperExample(t *testing.T) {
	st, p := paintersStore(t)
	// Painters of starryNight with a painter child, and the child's works.
	q := p.MustParseQuery(
		"q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	r, err := Materialize(st, q)
	if err != nil {
		t.Fatal(err)
	}
	// u1 -> u2 -> {irises, sunflowers}; u5 -> u6 paints nothing.
	if r.Len() != 2 {
		t.Fatalf("got %d rows, want 2", r.Len())
	}
	u1, _ := st.Dict().LookupIRI("u1")
	for _, row := range rowsOf(r) {
		if row[0] != u1 {
			t.Errorf("unexpected painter %d", row[0])
		}
	}
}

func TestEvalQueryAgainstNaive(t *testing.T) {
	// Property: index-nested-loop evaluation agrees with naive evaluation
	// by enumerating all variable assignments, on random small data/queries.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		st := store.New()
		d := st.Dict()
		for i := 0; i < 30; i++ {
			st.Add(store.Triple{
				d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(5))),
				d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(3))),
				d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(5))),
			})
		}
		p := cq.NewParser(d)
		q := randomConnectedQuery(rng, p, d, 1+rng.Intn(3))
		got, err := Materialize(st, q)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveEval(st, q)
		if !got.EqualAsSet(want) {
			t.Fatalf("trial %d: eval mismatch for %s: got %d rows, want %d",
				trial, q.Format(d), got.Len(), want.Len())
		}
	}
}

func randomConnectedQuery(rng *rand.Rand, p *cq.Parser, d *dict.Dictionary, n int) *cq.Query {
	vars := []cq.Term{p.FreshVar()}
	var atoms []cq.Atom
	for i := 0; i < n; i++ {
		s := vars[rng.Intn(len(vars))]
		o := cq.Term(0)
		if rng.Intn(2) == 0 {
			o = cq.Const(d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(5))))
		} else {
			o = p.FreshVar()
			vars = append(vars, o)
		}
		prop := cq.Const(d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(3))))
		if rng.Intn(4) == 0 {
			pv := p.FreshVar()
			vars = append(vars, pv)
			prop = pv
		}
		atoms = append(atoms, cq.Atom{s, prop, o})
	}
	return &cq.Query{Head: vars[:1+rng.Intn(len(vars))], Atoms: atoms}
}

// naiveEval enumerates every assignment of query variables to dictionary IDs
// appearing in the store and keeps those satisfying all atoms.
func naiveEval(st *store.Store, q *cq.Query) *Relation {
	ids := map[dict.ID]struct{}{}
	for _, tr := range st.Triples() {
		for _, v := range tr {
			ids[v] = struct{}{}
		}
	}
	var domain []dict.ID
	for id := range ids {
		domain = append(domain, id)
	}
	vars := q.Vars()
	out := NewRowIndex(NewRelation(q.Head))
	assign := make(map[cq.Term]dict.ID)
	var rec func(int)
	rec = func(k int) {
		if k == len(vars) {
			for _, a := range q.Atoms {
				var tr store.Triple
				for p := 0; p < 3; p++ {
					if a[p].IsConst() {
						tr[p] = a[p].ConstID()
					} else {
						tr[p] = assign[a[p]]
					}
				}
				if !st.Contains(tr) {
					return
				}
			}
			row := make(Row, len(q.Head))
			for i, h := range q.Head {
				if h.IsConst() {
					row[i] = h.ConstID()
				} else {
					row[i] = assign[h]
				}
			}
			out.Add(row)
			return
		}
		for _, id := range domain {
			assign[vars[k]] = id
			rec(k + 1)
		}
		delete(assign, vars[k])
	}
	rec(0)
	return out.Relation()
}

func TestEvalUCQDedup(t *testing.T) {
	st, p := paintersStore(t)
	q1 := p.MustParseQuery("q(X) :- t(X, hasPainted, starryNight)")
	p.ResetNames()
	q2 := p.MustParseQuery("q(X) :- t(X, isParentOf, Y)")
	u := cq.NewUCQ(q1, q2)
	r, err := MaterializeUCQ(st, u)
	if err != nil {
		t.Fatal(err)
	}
	// q1: {u1, u5}; q2: {u1, u3, u5} — union {u1, u3, u5}.
	if r.Len() != 3 {
		t.Fatalf("union rows = %d, want 3", r.Len())
	}
}

func TestEvalUCQArityMismatch(t *testing.T) {
	st, p := paintersStore(t)
	q1 := p.MustParseQuery("q(X) :- t(X, hasPainted, Y)")
	p.ResetNames()
	q2 := p.MustParseQuery("q(X, Y) :- t(X, hasPainted, Y)")
	if _, err := MaterializeUCQ(st, cq.NewUCQ(q1, q2)); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if _, err := MaterializeUCQ(st, cq.NewUCQ()); err == nil {
		t.Fatal("empty union should fail")
	}
}

func TestCountHelpers(t *testing.T) {
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X) :- t(X, hasPainted, Y)")
	r, err := Materialize(st, q)
	if err != nil {
		t.Fatal(err)
	}
	n := r.Len()
	if n != 5 { // painters: u1, u2, u3, u4, u5
		t.Fatalf("Materialize = %d rows, want 5 painters", n)
	}
	un, err := CountUCQ(st, cq.NewUCQ(q))
	if err != nil || un != n {
		t.Fatalf("CountUCQ = %d err=%v (want %d)", un, err, n)
	}
}

func TestRelationProjectWithConstants(t *testing.T) {
	st, p := paintersStore(t)
	q := p.MustParseQuery("q(X, Y) :- t(X, hasPainted, Y)")
	r, err := Materialize(st, q)
	if err != nil {
		t.Fatal(err)
	}
	c := cq.Const(st.Dict().EncodeIRI("tag"))
	pr, err := refProject(r, []cq.Term{q.Head[0], c})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Arity() != 2 {
		t.Fatal("arity")
	}
	for _, row := range rowsOf(pr) {
		if row[1] != c.ConstID() {
			t.Fatal("constant column wrong")
		}
	}
	// Projection to painter only: dedup to 5 painters.
	pd, err := refProject(r, []cq.Term{q.Head[0]})
	if err != nil {
		t.Fatal(err)
	}
	if pd.Len() != 5 {
		t.Errorf("distinct painters = %d, want 5", pd.Len())
	}
	if _, err := refProject(r, []cq.Term{cq.Var(9999)}); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestRelationHelpers(t *testing.T) {
	r := relOf([]cq.Term{cq.Var(1), cq.Var(2)}, Row{2, 1}, Row{1, 2}, Row{2, 1})
	d := refDistinct(r)
	if d.Len() != 2 {
		t.Errorf("refDistinct len = %d", d.Len())
	}
	if d.At(0, 0) != 2 || d.At(1, 0) != 1 {
		t.Error("refDistinct did not keep first occurrences in order")
	}
	if !d.EqualAsSet(refDistinct(r)) {
		t.Error("EqualAsSet reflexive-ish failed")
	}
	other := NewRelation([]cq.Term{cq.Var(1)})
	if d.EqualAsSet(other) {
		t.Error("arity mismatch should not be equal")
	}
	if got, want := r.SizeBytes(), 4*(cap(r.vals[0])+cap(r.vals[1])); got != want || got < 4*3*2 {
		t.Errorf("SizeBytes = %d, want %d: 4 B per allocated value, at least 4 B per stored one", got, want)
	}
	if r.ColIndex(cq.Var(2)) != 1 || r.ColIndex(cq.Var(9)) != -1 {
		t.Error("ColIndex wrong")
	}
}

func TestRelationPropertiesQuick(t *testing.T) {
	// refDistinct is idempotent and EqualAsSet is order-insensitive, for
	// arbitrary row contents.
	f := func(vals []uint16) bool {
		r := NewRelation([]cq.Term{cq.Var(1), cq.Var(2)})
		for i := 0; i+1 < len(vals); i += 2 {
			r.Append(Row{dict.ID(vals[i]%7 + 1), dict.ID(vals[i+1]%7 + 1)})
		}
		d1 := refDistinct(r)
		d2 := refDistinct(d1)
		if d1.Len() != d2.Len() || !d1.EqualAsSet(d2) {
			return false
		}
		// Reversing row order preserves set equality.
		rev := NewRelation(r.Cols)
		for i := r.Len() - 1; i >= 0; i-- {
			rev.Append(r.Row(i, nil))
		}
		return r.EqualAsSet(rev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
