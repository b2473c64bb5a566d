package rdfviews

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rdfviews/internal/reason"
)

// TestMaintainDerivesEntailments: a maintained view over an implicit class
// follows updates to the explicit triples that entail it. Under both
// saturation and post-reformulation, inserting a painting makes it a picture
// and deleting the only triple that made m1 a picture drops m1 — synchronously
// and behind a change queue.
func TestMaintainDerivesEntailments(t *testing.T) {
	for _, mode := range []Reasoning{ReasoningSaturate, ReasoningPost} {
		for _, depth := range []int{0, 8} {
			t.Run(fmt.Sprintf("%s/queue=%d", mode, depth), func(t *testing.T) {
				db := NewDatabase()
				db.MustLoadGraphString(museumData)
				db.MustLoadSchemaString(museumSchema)
				w := db.MustParseWorkload(`q(X) :- t(X, rdf:type, picture)`)
				rec, err := db.Recommend(w, Options{Reasoning: mode, Timeout: time.Second})
				if err != nil {
					t.Fatal(err)
				}
				lv, err := rec.MaintainWithOptions(MaintainOptions{QueueDepth: depth, StaleReads: WaitFresh})
				if err != nil {
					t.Fatal(err)
				}
				defer lv.Close()
				for _, step := range []struct{ op, line, want string }{
					{"", "", "[m1 m2 m3]"},
					{"insert", "m9 rdf:type painting .", "[m1 m2 m3 m9]"},
					{"delete", "m1 rdf:type painting .", "[m2 m3 m9]"},
				} {
					switch step.op {
					case "insert":
						_, err = lv.Insert(step.line)
					case "delete":
						_, err = lv.Delete(step.line)
					}
					if err != nil {
						t.Fatal(err)
					}
					rows, err := lv.Answer(0)
					if err != nil {
						t.Fatal(err)
					}
					if got := fmt.Sprint(canon(rows)); got != step.want {
						t.Errorf("after %s %q: %v, want %v", step.op, step.line, got, step.want)
					}
				}
			})
		}
	}
}

// TestSchemaUpdateFails: in every reasoning mode, a LiveViews update whose
// predicate is one of the four RDFS schema properties fails with
// ErrSchemaUpdate and changes nothing — the views were recommended under the
// schema as it was.
func TestSchemaUpdateFails(t *testing.T) {
	for _, mode := range []Reasoning{ReasoningNone, ReasoningSaturate, ReasoningPre, ReasoningPost} {
		db := NewDatabase()
		db.MustLoadGraphString(museumData)
		db.MustLoadSchemaString(museumSchema)
		w := db.MustParseWorkload(`q(X) :- t(X, rdf:type, picture)`)
		rec, err := db.Recommend(w, Options{Reasoning: mode, Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		lv, err := rec.Maintain()
		if err != nil {
			t.Fatal(err)
		}
		n := db.NumTriples()
		for _, tc := range []struct {
			op   func(string) (int, error)
			line string
		}{
			{lv.Insert, "sketch rdfs:subClassOf picture ."},
			{lv.Insert, "isHungIn rdfs:subPropertyOf isLocatIn ."},
			{lv.Insert, "isLocatIn rdfs:domain picture ."},
			{lv.Insert, "isLocatIn rdfs:range museum ."},
			{lv.Delete, "painting rdfs:subClassOf picture ."},
			{lv.Delete, "isExpIn rdfs:subPropertyOf isLocatIn ."},
		} {
			if _, err := tc.op(tc.line); !errors.Is(err, ErrSchemaUpdate) {
				t.Errorf("%s: update %q returned %v, want ErrSchemaUpdate", mode, tc.line, err)
			}
		}
		if db.NumTriples() != n || db.SchemaSize() != 2 {
			t.Errorf("%s: refused schema updates left %d triples (was %d) and %d schema statements (was 2)",
				mode, db.NumTriples(), n, db.SchemaSize())
		}
	}
}

// unionLimitLive is a deep sub-property hierarchy p0 ⊒ p1 ⊒ p2 ⊒ p3 over a
// ring of edges spread across the four levels, with a recommendation under
// post-reformulation whose union-term limit is 8.
func unionLimitLive(t *testing.T) (*Database, *LiveViews) {
	t.Helper()
	db := NewDatabase()
	var data strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&data, "n%d p%d n%d .\n", i, i%4, (i+1)%40)
		fmt.Fprintf(&data, "n%d p%d n%d .\n", i, (i+1)%4, (i+7)%40)
	}
	db.MustLoadGraphString(data.String())
	db.MustLoadSchemaString(`
p1 rdfs:subPropertyOf p0 .
p2 rdfs:subPropertyOf p1 .
p3 rdfs:subPropertyOf p2 .
`)
	rec, err := db.Recommend(db.MustParseWorkload(`q(X, Y) :- t(X, p3, Y)`), Options{
		Reasoning: ReasoningPost, MaxUnionTerms: 8, MaxStates: 50, Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := rec.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	return db, lv
}

// TestServingUnionLimitBoundsAtoms: on the serving path the union-term limit
// bounds an atom's alternatives, not their product. A 6-atom chain over the
// hierarchy has 4^6 union terms — over the limit of 8, which Reformulate
// refuses — but 4 alternatives per atom, so it answers, and its answer is the
// saturated database's.
func TestServingUnionLimitBoundsAtoms(t *testing.T) {
	db, lv := unionLimitLive(t)
	chain := `q(A, G) :- t(A, p0, B), t(B, p0, C), t(C, p0, D), t(D, p0, E), t(E, p0, F), t(F, p0, G)`
	q := db.MustParseWorkload(chain).Queries[0]
	if _, err := reason.Reformulate(q, db.reasonSchema(), 8); !errors.Is(err, reason.ErrTooManyUnionTerms) {
		t.Fatalf("Reformulate under the limit: %v, want ErrTooManyUnionTerms", err)
	}
	got, err := lv.AnswerQuery(chain)
	if err != nil {
		t.Fatalf("AnswerQuery: %v", err)
	}
	want := oracle(t, db, chain, ReasoningSaturate)
	if len(want) == 0 || !sameAnswers(got, want) {
		t.Fatalf("chain answered %d rows, saturate oracle %d", len(got), len(want))
	}
}

// TestServingUnionLimitBoundsMembers: rule 6 binds each property variable to
// the four properties and rdf:type, so two of them give more than 8 members,
// and the serving path still refuses the query.
func TestServingUnionLimitBoundsMembers(t *testing.T) {
	_, lv := unionLimitLive(t)
	_, err := lv.AnswerQuery(`q(X) :- t(X, P, Y), t(Y, Q, Z)`)
	if !errors.Is(err, reason.ErrTooManyUnionTerms) {
		t.Fatalf("rule-6 query over the limit: %v, want ErrTooManyUnionTerms", err)
	}
}
