package reason

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// paperSchema builds the Section 4.1 museum schema.
func paperSchema() *rdf.Schema {
	s := rdf.NewSchema()
	s.AddSubClass("painting", "masterpiece")
	s.AddSubClass("masterpiece", "work")
	s.AddSubProperty("hasPainted", "hasCreated")
	s.AddRange("hasPainted", "painting")
	s.AddRange("hasCreated", "masterpiece")
	return s
}

func TestSaturatePaperExample(t *testing.T) {
	// Section 4.1: (u, hasPainted, _:b) entails (u, hasCreated, _:b),
	// (_:b, type, painting), (_:b, type, masterpiece), (_:b, type, work).
	st := store.New()
	st.MustAddGraph(rdf.MustParse("u hasPainted b0 ."))
	s := NewSchema(paperSchema(), st.Dict())
	sat := Saturate(st, s)

	want := rdf.MustParse(`
u hasCreated b0 .
b0 rdf:type painting .
b0 rdf:type masterpiece .
b0 rdf:type work .
`)
	for _, tr := range want {
		if !sat.Contains(sat.Encode(tr)) {
			t.Errorf("saturation misses %v", tr)
		}
	}
	if sat.Len() != 5 {
		t.Errorf("saturated size = %d, want 5", sat.Len())
	}
	if st.Len() != 1 {
		t.Error("Saturate mutated the original store")
	}
}

func TestSaturateIdempotent(t *testing.T) {
	st := store.New()
	st.MustAddGraph(rdf.MustParse(`
u hasPainted p1 .
v rdf:type painting .
`))
	s := NewSchema(paperSchema(), st.Dict())
	sat1 := Saturate(st, s)
	sat2 := Saturate(sat1, s)
	if sat1.Len() != sat2.Len() {
		t.Errorf("saturation not a fixpoint: %d then %d", sat1.Len(), sat2.Len())
	}
}

func TestSaturateSubclassTransitivity(t *testing.T) {
	st := store.New()
	st.MustAddGraph(rdf.MustParse("x rdf:type painting ."))
	s := NewSchema(paperSchema(), st.Dict())
	sat := Saturate(st, s)
	for _, cls := range []string{"masterpiece", "work"} {
		tr := sat.Encode(rdf.T("x", rdf.RDFType, cls))
		if !sat.Contains(tr) {
			t.Errorf("missing transitive type %s", cls)
		}
	}
}

func TestEntailedTripleBound(t *testing.T) {
	st := store.New()
	st.MustAddGraph(rdf.MustParse("u hasPainted p1 .\nv hasPainted p2 ."))
	s := NewSchema(paperSchema(), st.Dict())
	sat := Saturate(st, s)
	implicit := sat.Len() - st.Len()
	if bound := EntailedTripleBound(st, s); implicit > bound {
		t.Errorf("implicit %d exceeds bound %d", implicit, bound)
	}
}

func TestReformulateRule1SubClass(t *testing.T) {
	d := dict.New()
	s := NewSchema(paperSchema(), d)
	p := cq.NewParser(d)
	q := p.MustParseQuery("q(X) :- t(X, rdf:type, masterpiece)")
	u := MustReformulate(q, s)
	// Rule 1: masterpiece ⇐ painting. Rule 4 on the masterpiece atom
	// (range(hasCreated)=masterpiece) and on the derived painting atom
	// (range(hasPainted)=painting): four terms in total.
	if u.Len() != 4 {
		t.Fatalf("union size = %d, want 4\n%s", u.Len(), u.Format(d))
	}
}

func TestReformulateRule1Transitive(t *testing.T) {
	d := dict.New()
	s := NewSchema(paperSchema(), d)
	p := cq.NewParser(d)
	q := p.MustParseQuery("q(X) :- t(X, rdf:type, work)")
	u := MustReformulate(q, s)
	// work ⇐ masterpiece ⇐ painting, plus range-based terms:
	// work has no direct domain/range property... hasCreated range masterpiece,
	// hasPainted range painting; neither has range work directly, so rule 4
	// fires only after rewriting to masterpiece/painting.
	// Terms: {type work}, {type masterpiece}, {type painting},
	//        {∃Y hasCreated(Y, X)} (range masterpiece),
	//        {∃Y hasPainted(Y, X)} (range painting).
	if u.Len() != 5 {
		t.Fatalf("union size = %d, want 5\n%s", u.Len(), u.Format(d))
	}
}

func TestReformulateRule2SubProperty(t *testing.T) {
	d := dict.New()
	s := NewSchema(paperSchema(), d)
	p := cq.NewParser(d)
	q := p.MustParseQuery("q(X, Y) :- t(X, hasCreated, Y)")
	u := MustReformulate(q, s)
	if u.Len() != 2 {
		t.Fatalf("union size = %d, want 2\n%s", u.Len(), u.Format(d))
	}
}

func TestReformulateRules5And6(t *testing.T) {
	// The paper's Table 2 example (Section 4.3), golden-tested in
	// table2_test.go; here check the raw counts for the two relaxed atoms.
	d := dict.New()
	sch := rdf.NewSchema()
	sch.AddSubClass("painting", "picture")
	sch.AddSubProperty("isExpIn", "isLocatIn")
	s := NewSchema(sch, d)
	p := cq.NewParser(d)

	// q1(X1) :- t(X1, rdf:type, picture): rule 1 applies once.
	q1 := p.MustParseQuery("q(X1) :- t(X1, rdf:type, picture)")
	u1 := MustReformulate(q1, s)
	if u1.Len() != 2 {
		t.Errorf("q1,S size = %d, want 2\n%s", u1.Len(), u1.Format(d))
	}

	// q4(X1, X2) :- t(X1, X2, picture): rule 6 then rules 2 and 1 — six terms.
	p.ResetNames()
	q4 := p.MustParseQuery("q(X1, X2) :- t(X1, X2, picture)")
	u4 := MustReformulate(q4, s)
	if u4.Len() != 6 {
		t.Errorf("q4,S size = %d, want 6\n%s", u4.Len(), u4.Format(d))
	}
}

func TestReformulateTerminationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		d := dict.New()
		sch := randomSchema(rng, 2+rng.Intn(4))
		s := NewSchema(sch, d)
		p := cq.NewParser(d)
		q := randomSchemaQuery(rng, p, s, 1+rng.Intn(3))
		u, err := Reformulate(q, s, 0)
		if err != nil {
			t.Fatalf("Reformulate failed: %v", err)
		}
		bound := TerminationBound(s, len(q.Atoms))
		if float64(u.Len()) > bound {
			t.Fatalf("union %d exceeds bound (2|S|²)^m = %g for |S|=%d m=%d",
				u.Len(), bound, s.Len(), len(q.Atoms))
		}
	}
}

func TestReformulateLimit(t *testing.T) {
	d := dict.New()
	sch := randomSchema(rand.New(rand.NewSource(3)), 6)
	s := NewSchema(sch, d)
	p := cq.NewParser(d)
	// Variable property positions explode under rule 6; a limit of 2 must trip.
	q := p.MustParseQuery("q(X) :- t(X, P1, Y), t(Y, P2, Z)")
	_, err := Reformulate(q, s, 2)
	if !errors.Is(err, ErrTooManyUnionTerms) {
		t.Fatalf("expected ErrTooManyUnionTerms, got %v", err)
	}
}

// randomSchema builds a small random schema over classes c0..c5 and
// properties p0..p4.
func randomSchema(rng *rand.Rand, n int) *rdf.Schema {
	s := rdf.NewSchema()
	cls := func(i int) string { return fmt.Sprintf("c%d", i) }
	prp := func(i int) string { return fmt.Sprintf("p%d", i) }
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			s.AddSubClass(cls(rng.Intn(6)), cls(rng.Intn(6)))
		case 1:
			s.AddSubProperty(prp(rng.Intn(5)), prp(rng.Intn(5)))
		case 2:
			s.AddDomain(prp(rng.Intn(5)), cls(rng.Intn(6)))
		default:
			s.AddRange(prp(rng.Intn(5)), cls(rng.Intn(6)))
		}
	}
	return s
}

// randomSchemaQuery builds a query whose constants come from the schema
// vocabulary, so reformulation has rules to fire. Subjects and objects
// are sometimes constants of randomData's resources, objects sometimes
// repeat a variable (also the atom's own subject), class and property
// positions are sometimes variables (rules 5–6), and a third of the heads
// keep every body variable — the full-width head whose plan does not dedup.
func randomSchemaQuery(rng *rand.Rand, p *cq.Parser, s *Schema, atoms int) *cq.Query {
	d := s.Dict()
	res := func() cq.Term { return cq.Const(d.EncodeIRI(fmt.Sprintf("r%d", rng.Intn(8)))) }
	vars := []cq.Term{p.FreshVar()}
	var as []cq.Atom
	for i := 0; i < atoms; i++ {
		subj := vars[rng.Intn(len(vars))]
		if rng.Intn(6) == 0 {
			subj = res()
		}
		if rng.Intn(3) == 0 { // type atom
			var cls cq.Term
			if len(s.Classes) > 0 && rng.Intn(4) > 0 {
				cls = cq.Const(s.Classes[rng.Intn(len(s.Classes))])
			} else {
				v := p.FreshVar()
				vars = append(vars, v)
				cls = v
			}
			as = append(as, cq.Atom{subj, cq.Const(s.TypeID), cls})
			continue
		}
		var prop cq.Term
		if len(s.Properties) > 0 && rng.Intn(5) > 0 {
			prop = cq.Const(s.Properties[rng.Intn(len(s.Properties))])
		} else if rng.Intn(2) == 0 {
			prop = cq.Const(d.EncodeIRI(fmt.Sprintf("q%d", rng.Intn(3))))
		} else {
			v := p.FreshVar()
			vars = append(vars, v)
			prop = v
		}
		var obj cq.Term
		switch rng.Intn(8) {
		case 0:
			obj = res()
		case 1:
			obj = vars[rng.Intn(len(vars))]
		default:
			obj = p.FreshVar()
			vars = append(vars, obj)
		}
		as = append(as, cq.Atom{subj, prop, obj})
	}
	head := []cq.Term{vars[0]}
	if rng.Intn(3) == 0 {
		head = (&cq.Query{Atoms: as}).Vars()
	}
	q := &cq.Query{Head: head, Atoms: as}
	if len(head) == 0 || q.Validate() != nil {
		return randomSchemaQuery(rng, p, s, atoms)
	}
	return q
}

// randomData populates a store with triples over the schema vocabulary.
func randomData(rng *rand.Rand, st *store.Store, s *Schema, n int) {
	d := st.Dict()
	res := func(i int) dict.ID { return d.EncodeIRI(fmt.Sprintf("r%d", i)) }
	for i := 0; i < n; i++ {
		sub := res(rng.Intn(8))
		switch rng.Intn(3) {
		case 0: // type triple
			if len(s.Classes) > 0 {
				st.Add(store.Triple{sub, s.TypeID, s.Classes[rng.Intn(len(s.Classes))]})
				continue
			}
			fallthrough
		case 1: // schema property triple
			if len(s.Properties) > 0 {
				st.Add(store.Triple{sub, s.Properties[rng.Intn(len(s.Properties))], res(rng.Intn(8))})
				continue
			}
			fallthrough
		default: // other property
			st.Add(store.Triple{sub, d.EncodeIRI(fmt.Sprintf("q%d", rng.Intn(3))), res(rng.Intn(8))})
		}
	}
}

// TestReformulateEquivalentToSaturation is the Theorem 4.2 property test:
// evaluate(q, saturate(D,S)) == evaluate(Reformulate(q,S), D) on random
// schemas, databases, and queries — and == the factored reformulation
// (ReformulateAtoms) evaluated on D the way the serving tier runs it: one
// plan per rule-5/6 member with union leaves, several members unioned.
func TestReformulateEquivalentToSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 40; trial++ {
		st := store.New()
		sch := randomSchema(rng, 1+rng.Intn(6))
		s := NewSchema(sch, st.Dict())
		randomData(rng, st, s, 5+rng.Intn(40))
		p := cq.NewParser(st.Dict())
		q := randomSchemaQuery(rng, p, s, 1+rng.Intn(3))

		u, err := Reformulate(q, s, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sat := Saturate(st, s)
		onSat, err := engine.Materialize(sat, q)
		if err != nil {
			t.Fatalf("trial %d eval on saturated: %v", trial, err)
		}
		onOrig, err := engine.MaterializeUCQ(st, u)
		if err != nil {
			t.Fatalf("trial %d eval reformulation: %v", trial, err)
		}
		if !onSat.EqualAsSet(onOrig) {
			t.Fatalf("trial %d: Theorem 4.2 violated\nquery: %s\nschema: %v\n|sat|=%d |orig|=%d union=%d\nsat rows: %d, reform rows: %d",
				trial, q.Format(st.Dict()), sch.Statements(), sat.Len(), st.Len(), u.Len(), onSat.Len(), onOrig.Len())
		}
		factored := evalFactored(t, st, q, s)
		if !onSat.EqualAsSet(factored) || hasDuplicateRows(factored) {
			t.Fatalf("trial %d: factored reformulation differs from saturation\nquery: %s\nschema: %v\nsat rows: %d, factored rows: %d",
				trial, q.Format(st.Dict()), sch.Statements(), onSat.Len(), factored.Len())
		}
	}
}

// evalFactored answers q on st as the serving tier does: ReformulateAtoms,
// one engine.PlanQueryAlts plan per member, and the members' distinct union
// when there are several — a single member's stream is returned as is, so
// its rows must already be a set.
func evalFactored(t *testing.T, st *store.Store, q *cq.Query, s *Schema) *engine.Relation {
	t.Helper()
	members, alts, err := ReformulateAtoms(q, s, 0)
	if err != nil {
		t.Fatalf("ReformulateAtoms: %v", err)
	}
	streams := make([]*engine.RowStream, len(members))
	for i, m := range members {
		p, err := engine.PlanQueryAlts(st, m, alts[i], nil)
		if err != nil {
			t.Fatalf("PlanQueryAlts(%s): %v", m.Format(st.Dict()), err)
		}
		streams[i] = p.EvalStream(engine.ExecOptions{})
	}
	rs, err := engine.UnionStreams(streams, 64)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := rs.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// hasDuplicateRows reports whether a relation holds some row twice.
func hasDuplicateRows(r *engine.Relation) bool {
	seen := make(map[string]bool, r.Len())
	for i := 0; i < r.Len(); i++ {
		k := fmt.Sprint(r.Row(i, nil))
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

func TestSchemaAccessorsEncoded(t *testing.T) {
	d := dict.New()
	s := NewSchema(paperSchema(), d)
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
	}
	if len(s.Classes) != 3 || len(s.Properties) != 2 {
		t.Errorf("Classes=%d Properties=%d", len(s.Classes), len(s.Properties))
	}
	mp := d.EncodeIRI("masterpiece")
	if got := s.SubClassesOf(mp); len(got) != 1 {
		t.Errorf("SubClassesOf(masterpiece) = %v", got)
	}
	hc := d.EncodeIRI("hasCreated")
	if got := s.SubPropertiesOf(hc); len(got) != 1 {
		t.Errorf("SubPropertiesOf(hasCreated) = %v", got)
	}
	painting := d.EncodeIRI("painting")
	if got := s.RangePropertiesOf(painting); len(got) != 1 {
		t.Errorf("RangePropertiesOf(painting) = %v", got)
	}
	if got := s.DomainPropertiesOf(painting); len(got) != 0 {
		t.Errorf("DomainPropertiesOf(painting) = %v", got)
	}
	if s.Source() != nil && s.Source().Len() != 5 {
		t.Error("Source roundtrip")
	}
	if s.Dict() != d {
		t.Error("Dict accessor")
	}
}
