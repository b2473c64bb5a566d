package rdfviews

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestAnswerSurfacesAgree is the differential over every answering surface
// of the facade: for each fixture × reasoning mode × store layout, every
// workload query answered through each surface returns the uncached oracle's
// rows (answerRelation), sorted, at the head's width. The surfaces are
// Database.Answer, a drained Database.AnswerQueryStream, Materialized.Answer,
// OfflineViews.Answer after a bundle round trip and — in the maintainable
// modes — LiveViews.Answer, LiveViews.AnswerQuery, Prepared.Answer and a
// drained LiveViews.AnswerQueryStream. A workload text with its head permuted
// takes the view route with its columns reordered on the text surfaces.
func TestAnswerSurfacesAgree(t *testing.T) {
	fixtures := []struct {
		name, data, schema string
		workload           []string
	}{
		{"painters", paintersData, serveSchema, []string{
			paintersQuery,
			`q(A, B) :- t(A, hasCreated, B)`,
			`q(X) :- t(X, rdf:type, artist)`,
		}},
		{"museum", museumData, museumSchema, []string{
			`q(X, Y) :- t(X, rdf:type, picture), t(X, isLocatIn, Y)`,
			`q(X) :- t(X, isLocatIn, Y)`,
		}},
		// Head-symmetric: its reformulation holds mirror-image terms.
		{"symmetric", symData, symSchema, []string{
			symQuery,
			`q(B) :- t(S, p4, B), t(S, p0, A)`,
		}},
	}
	// The first workload query of each fixture with its head reversed.
	permuted := map[string]string{
		"painters":  `q(Z, X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
		"museum":    `q(Y, X) :- t(X, rdf:type, picture), t(X, isLocatIn, Y)`,
		"symmetric": `q(B, A) :- t(S, p0, A), t(S, p4, B)`,
	}
	layouts := []struct {
		name string
		db   func() *Database
	}{
		{"flat", NewDatabase},
		{"dual", func() *Database { return NewDatabaseDual(2, 2) }},
	}
	ctx := context.Background()
	for _, fx := range fixtures {
		for _, mode := range []Reasoning{ReasoningNone, ReasoningSaturate, ReasoningPre, ReasoningPost} {
			for _, lay := range layouts {
				t.Run(fmt.Sprintf("%s/%s/%s", fx.name, mode, lay.name), func(t *testing.T) {
					db := lay.db()
					db.MustLoadGraphString(fx.data)
					db.MustLoadSchemaString(fx.schema)
					w := db.MustParseWorkload(strings.Join(fx.workload, "\n"))
					rec, err := db.Recommend(w, Options{Reasoning: mode, MaxStates: 200, Timeout: 10 * time.Second})
					if err != nil {
						t.Fatal(err)
					}
					mat, err := rec.Materialize()
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := mat.SaveBundle(&buf); err != nil {
						t.Fatal(err)
					}
					off, err := LoadBundle(&buf)
					if err != nil {
						t.Fatal(err)
					}
					var lv *LiveViews
					if mode != ReasoningPost {
						if lv, err = rec.Maintain(); err != nil {
							t.Fatal(err)
						}
						defer lv.Close()
					}

					check := func(surface, text string, got [][]string, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s(%q): %v", surface, text, err)
						}
						want := oracle(t, db, text, mode)
						width := len(db.MustParseWorkload(text).Queries[0].Head)
						for _, r := range got {
							if len(r) != width {
								t.Fatalf("%s(%q): row %v is %d wide, want %d", surface, text, r, len(r), width)
							}
						}
						if !sameAnswers(got, want) {
							t.Fatalf("%s(%q) diverged from the oracle\n got: %v\nwant: %v", surface, text, canon(got), canon(want))
						}
					}
					texts := append(append([]string(nil), fx.workload...), permuted[fx.name])
					for i, text := range texts {
						q := db.MustParseWorkload(text).Queries[0]
						got, err := db.Answer(q, mode)
						check("Database.Answer", text, got, err)
						s, err := db.AnswerQueryStream(ctx, text, mode)
						if err == nil {
							got = drainAnswers(t, s)
						}
						check("Database.AnswerQueryStream", text, got, err)
						if i < len(fx.workload) {
							got, err = mat.Answer(i)
							check("Materialized.Answer", text, got, err)
							got, err = off.Answer(i)
							check("OfflineViews.Answer", text, got, err)
						}
						if lv == nil {
							continue
						}
						if i < len(fx.workload) {
							got, err = lv.Answer(i)
							check("LiveViews.Answer", text, got, err)
						}
						got, err = lv.AnswerQuery(text)
						check("LiveViews.AnswerQuery", text, got, err)
						p, err := lv.Prepare(text)
						if err == nil {
							got, err = p.Answer()
						}
						check("Prepared.Answer", text, got, err)
						s, err = lv.AnswerQueryStream(ctx, text)
						if err == nil {
							got = drainAnswers(t, s)
						}
						check("LiveViews.AnswerQueryStream", text, got, err)
					}
				})
			}
		}
	}
}
