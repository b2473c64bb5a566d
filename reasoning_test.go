package rdfviews

import (
	"errors"
	"fmt"
	"testing"
	"time"
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
