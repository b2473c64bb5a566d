package rdfviews

import (
	"strings"
	"testing"
	"time"
)

// Two paper-layer properties, end to end: a view substituted into a scan
// keeps the scan's column renaming (or the rewriting projects columns its
// input lacks), and a reformulated union keeps the mirror images of a
// head-symmetric term (or their answers are lost).

// symData and symSchema make q(A, B) :- t(S, p0, A), t(S, p4, B) symmetric
// under swapping its head: p8 and p11 are sub-properties of both p0 and p4,
// so the reformulation holds t(S, p8, A), t(S, p11, B) and its mirror image
// t(S, p11, A), t(S, p8, B). Every pair of objects of one subject is an
// answer: 4² + 2² + 2² = 24 rows.
const symData = `
s1 p8 x1 .
s1 p11 x2 .
s1 p8 x3 .
s1 p11 x4 .
s2 p8 y1 .
s2 p11 y2 .
s3 p8 z1 .
s3 p11 z2 .
`

const symSchema = `
p8 rdfs:subPropertyOf p0 .
p11 rdfs:subPropertyOf p0 .
p8 rdfs:subPropertyOf p4 .
p11 rdfs:subPropertyOf p4 .
`

const symQuery = `q(A, B) :- t(S, p0, A), t(S, p4, B)`

// TestFusedViewRewritingsAnswer: three queries over one body fuse into one
// view twice over, so the second fusion substitutes into the renamed scan the
// first one left. Every rewriting must still answer.
func TestFusedViewRewritingsAnswer(t *testing.T) {
	texts := []string{
		`q(X) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
		`q(Y) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
		`q(Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
	}
	db := NewDatabase()
	db.MustLoadGraphString(paintersData)
	w := db.MustParseWorkload(strings.Join(texts, "\n"))
	rec, err := db.Recommend(w, Options{MaxStates: 500, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := rec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range texts {
		got, err := mat.Answer(i)
		if err != nil {
			t.Fatalf("Views.Answer(%d): %v", i, err)
		}
		if want := oracle(t, db, text, ReasoningNone); !sameAnswers(got, want) {
			t.Fatalf("query %d: got %v, want %v", i, canon(got), canon(want))
		}
	}
}

// TestHeadSymmetricUnionKeepsMirrorTerms: the reformulation of a query
// symmetric under a head permutation keeps both mirror images, on every path
// that reformulates — the search's pre-reformulation initial state, the
// post-reformulation view extents, and the facade's uncached answer — and
// they all return the saturated store's 24 rows.
func TestHeadSymmetricUnionKeepsMirrorTerms(t *testing.T) {
	db := NewDatabase()
	db.MustLoadGraphString(symData)
	db.MustLoadSchemaString(symSchema)
	want := oracle(t, db, symQuery, ReasoningSaturate)
	if len(want) != 24 {
		t.Fatalf("saturated answer has %d rows, want 24", len(want))
	}
	if got := oracle(t, db, symQuery, ReasoningPost); !sameAnswers(got, want) {
		t.Fatalf("uncached reformulated answer: %d rows, want %d", len(got), len(want))
	}
	for _, mode := range []Reasoning{ReasoningPre, ReasoningPost} {
		w := db.MustParseWorkload(symQuery)
		rec, err := db.Recommend(w, Options{Reasoning: mode, MaxStates: 200, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		mat, err := rec.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := mat.Answer(0)
		if err != nil {
			t.Fatalf("%s: Views.Answer: %v", mode, err)
		}
		if !sameAnswers(got, want) {
			t.Fatalf("%s: Views.Answer: %d rows, want %d", mode, len(got), len(want))
		}
		got, err = db.Answer(w.Queries[0], mode)
		if err != nil || !sameAnswers(got, want) {
			t.Fatalf("%s: Database.Answer: %d rows (%v), want %d", mode, len(got), err, len(want))
		}
	}
}
