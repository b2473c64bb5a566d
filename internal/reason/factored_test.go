package reason

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
)

// TestReformulateAtomsFactorsReformulate is the factorisation property: the
// rule-5/6 members of ReformulateAtoms, each with every atom replaced by one
// of its alternatives in every combination, are Reformulate's union as a set
// of queries up to variable renaming (compared by OrderedCode).
func TestReformulateAtomsFactorsReformulate(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		d := dict.New()
		s := NewSchema(randomSchema(rng, 1+rng.Intn(7)), d)
		p := cq.NewParser(d)
		q := randomSchemaQuery(rng, p, s, 1+rng.Intn(3))

		u, err := Reformulate(q, s, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		members, alts, err := ReformulateAtoms(q, s, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(alts) != len(members) {
			t.Fatalf("trial %d: %d alternative lists for %d members", trial, len(alts), len(members))
		}
		want := make(map[string]bool, u.Len())
		for _, m := range u.Queries {
			want[m.OrderedCode()] = true
		}
		got := make(map[string]bool, u.Len())
		for mi, m := range members {
			for i, as := range alts[mi] {
				if as[0] != m.Atoms[i] {
					t.Fatalf("trial %d: first alternative of atom %d is %v, not the atom %v", trial, i, as[0], m.Atoms[i])
				}
			}
			product(m, alts[mi], func(c *cq.Query) { got[c.OrderedCode()] = true })
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: factored product has %d distinct queries, Reformulate %d\nquery: %s\nschema: %v\n%s",
				trial, len(got), len(want), q.Format(d), s.Source().Statements(), u.Format(d))
		}
		for code := range want {
			if !got[code] {
				t.Fatalf("trial %d: a union term is missing from the factored product\nquery: %s\n%s",
					trial, q.Format(d), u.Format(d))
			}
		}
		checked += u.Len()
	}
	t.Logf("%d union terms matched", checked)
}

// product calls fn with m under every combination of its atoms' alternatives.
func product(m *cq.Query, alts [][]cq.Atom, fn func(*cq.Query)) {
	cur := m.Clone()
	var rec func(i int)
	rec = func(i int) {
		if i == len(alts) {
			fn(cur.Clone())
			return
		}
		for _, a := range alts[i] {
			cur.Atoms[i] = a
			rec(i + 1)
		}
	}
	rec(0)
}

// TestReformulatePinned pins Reformulate's exact output — members, order and
// fresh-variable numbers, as rendered by UCQ.Format — on TestPaperTable2's
// queries and two museum queries whose rules 3–4 introduce fresh variables.
// The texts were rendered before rules 1–4 moved into the shared rewriteAtom,
// so moving them is shown to be a no-op; the largest union is pinned by the
// SHA-256 of its text.
func TestReformulatePinned(t *testing.T) {
	d := dict.New()
	sch := rdf.NewSchema()
	sch.AddSubClass("painting", "picture")
	sch.AddSubProperty("isExpIn", "isLocatIn")
	table2 := NewSchema(sch, d)
	museumDict := dict.New()
	museum := NewSchema(paperSchema(), museumDict)

	cases := []struct {
		s     *Schema
		d     *dict.Dictionary
		query string
		want  string
		terms int
	}{
		{table2, d, "q(X1) :- t(X1, rdf:type, picture)",
			"q(X1) :- t(X1, rdf:type, picture)\n  ∪ q(X1) :- t(X1, rdf:type, painting)", 2},
		{table2, d, "q(X1, X2) :- t(X1, X2, picture)",
			"q(X2, X3) :- t(X2, X3, picture)\n  ∪ q(X2, isExpIn) :- t(X2, isExpIn, picture)\n  ∪ q(X2, isLocatIn) :- t(X2, isLocatIn, picture)\n  ∪ q(X2, rdf:type) :- t(X2, rdf:type, picture)\n  ∪ q(X2, isLocatIn) :- t(X2, isExpIn, picture)\n  ∪ q(X2, rdf:type) :- t(X2, rdf:type, painting)", 6},
		{museum, museumDict, "q(X) :- t(X, rdf:type, work)",
			"q(X1) :- t(X1, rdf:type, work)\n  ∪ q(X1) :- t(X1, rdf:type, masterpiece)\n  ∪ q(X1) :- t(X1, rdf:type, painting)\n  ∪ q(X1) :- t(X2, hasCreated, X1)\n  ∪ q(X1) :- t(X3, hasPainted, X1)", 5},
		{museum, museumDict, "q(X, Z) :- t(X, rdf:type, masterpiece), t(Y, hasCreated, X), t(Y, rdf:type, Z)",
			"sha256:ebc41fed2fa5fcb742fb796d1654cc28e5f2d572e2d5f9fa1565f4bf24abc30a", 96},
	}
	// One parser per dictionary, names reset per query, as the texts were
	// rendered: variable numbers carry over from query to query.
	parsers := map[*dict.Dictionary]*cq.Parser{d: cq.NewParser(d), museumDict: cq.NewParser(museumDict)}
	for _, c := range cases {
		p := parsers[c.d]
		p.ResetNames()
		u := MustReformulate(p.MustParseQuery(c.query), c.s)
		got := u.Format(c.d)
		if len(c.want) > 7 && c.want[:7] == "sha256:" {
			sum := sha256.Sum256([]byte(got))
			got = "sha256:" + hex.EncodeToString(sum[:])
		}
		if got != c.want || u.Len() != c.terms {
			t.Errorf("Reformulate(%s) moved: %d terms\n%s\nwant %d terms\n%s", c.query, u.Len(), got, c.terms, c.want)
		}
	}
}

// TestReformulateAtomsLimit: the serving tier's bound applies to the rule-5/6
// members and to each atom's alternatives, not to their product.
func TestReformulateAtomsLimit(t *testing.T) {
	d := dict.New()
	sch := rdf.NewSchema()
	for _, sp := range [][2]string{{"p1", "p0"}, {"p2", "p1"}, {"p3", "p2"}} {
		sch.AddSubProperty(sp[0], sp[1])
	}
	s := NewSchema(sch, d)
	p := cq.NewParser(d)

	// Four alternatives per atom, 4^3 = 64 union terms.
	chain := p.MustParseQuery("q(A, D) :- t(A, p0, B), t(B, p0, C), t(C, p0, D)")
	if _, err := Reformulate(chain, s, 8); !errors.Is(err, ErrTooManyUnionTerms) {
		t.Fatalf("Reformulate under 8 terms: %v, want ErrTooManyUnionTerms", err)
	}
	members, alts, err := ReformulateAtoms(chain, s, 8)
	if err != nil {
		t.Fatalf("ReformulateAtoms under 8 terms: %v", err)
	}
	if len(members) != 1 || len(alts[0][0]) != 4 {
		t.Fatalf("got %d members, %d alternatives of the first atom; want 1 and 4", len(members), len(alts[0][0]))
	}
	if _, _, err := ReformulateAtoms(chain, s, 3); !errors.Is(err, ErrTooManyUnionTerms) {
		t.Fatalf("ReformulateAtoms under 3 terms: %v, want ErrTooManyUnionTerms", err)
	}

	// Rule 6 binds each property variable to the 4 properties and rdf:type:
	// 1 + 5 + 5 + 25 members up to renaming, more than 8.
	p.ResetNames()
	vars := p.MustParseQuery("q(X) :- t(X, P1, Y), t(Y, P2, Z)")
	if _, _, err := ReformulateAtoms(vars, s, 8); !errors.Is(err, ErrTooManyUnionTerms) {
		t.Fatalf("rule-6 members under 8 terms: %v, want ErrTooManyUnionTerms", err)
	}
}
