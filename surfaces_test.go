package rdfviews

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"rdfviews/internal/server"
)

// TestAnswerSurfacesAgree is the differential over every answering surface
// of the facade: for each fixture × reasoning mode × store layout, every
// workload query answered through each surface returns the uncached oracle's
// rows (answerRelation), sorted, at the head's width. The surfaces are
// Database.Answer and a drained Database.AnswerQueryStream, then Views.Answer,
// Views.AnswerQuery, Prepared.Answer and a drained Views.AnswerQueryStream on
// a Views in each of its three states: materialized, loaded from a bundle the
// materialized one saved, and maintained. A workload text with its head
// permuted takes the view route with its columns reordered on the text
// surfaces, in a bundle too; a text that only the store answers fails there
// with ErrNoStore. Every text is also served over HTTP (server.Handler) from
// the Database and from the maintained Views, its SPARQL JSON document
// decoded back into rows. Then the fixture's update stream runs through a
// maintained Views, synchronous and behind a change queue, served before and
// after it (maintainedAgree).
func TestAnswerSurfacesAgree(t *testing.T) {
	fixtures := []struct {
		name, data, schema string
		workload           []string
		// updates is a fixed stream of "+triple" inserts and "-triple"
		// deletes: explicit triples that entail, or were the only support
		// of, implicit ones, next to deletes that leave another support.
		updates []string
	}{
		{"painters", paintersData, serveSchema, []string{
			paintersQuery,
			`q(A, B) :- t(A, hasCreated, B)`,
			`q(X) :- t(X, rdf:type, artist)`,
		}, []string{
			"+u6 hasPainted wheatfield .", "+u9 rdf:type sculptor .", "-u3 hasPainted guernica .",
			"-u2 hasPainted irises .", "-u1 isParentOf u2 .", "+u1 isParentOf u4 .", "+u9 hasCreated bust .",
		}},
		{"museum", museumData, museumSchema, []string{
			`q(X, Y) :- t(X, rdf:type, picture), t(X, isLocatIn, Y)`,
			`q(X) :- t(X, isLocatIn, Y)`,
		}, []string{
			"+m9 rdf:type painting .", "+m9 isExpIn prado .", "-m1 rdf:type painting .",
			"-m2 isLocatIn orsay .", "+m3 isExpIn louvre .", "+m2 isExpIn orsay .",
		}},
		// Head-symmetric: its reformulation holds mirror-image terms.
		{"symmetric", symData, symSchema, []string{
			symQuery,
			`q(B) :- t(S, p4, B), t(S, p0, A)`,
		}, []string{
			"+s2 p8 y3 .", "-s1 p11 x2 .", "+s4 p11 w1 .", "+s4 p0 w2 .", "-s3 p8 z1 .", "-s3 p11 z2 .",
		}},
	}
	// The first workload query of each fixture with its head reversed, and a
	// query of no workload shape, which runs on the store.
	adhoc := map[string][]string{
		"painters": {`q(Z, X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
			`q(X) :- t(X, hasCreated, Y)`},
		"museum":    {`q(Y, X) :- t(X, rdf:type, picture), t(X, isLocatIn, Y)`, `q(Y) :- t(X, rdf:type, picture), t(X, isLocatIn, Y)`},
		"symmetric": {`q(B, A) :- t(S, p0, A), t(S, p4, B)`, `q(A) :- t(S, p0, A)`},
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
					lv, err := rec.Maintain()
					if err != nil {
						t.Fatal(err)
					}
					defer lv.Close()
					states := []struct {
						name string
						v    *Views
					}{{"Materialize", mat}, {"LoadBundle", off}, {"Maintain", lv}}

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
					dbHTTP := handlerFor(t, func(ctx context.Context, text string) (*AnswerStream, error) {
						return db.AnswerQueryStream(ctx, text, mode)
					})
					lvHTTP := handlerFor(t, lv.AnswerQueryStream)
					texts := append(append([]string(nil), fx.workload...), adhoc[fx.name]...)
					storeOnly := len(texts) - 1 // the ad-hoc text of no workload shape
					for i, text := range texts {
						q := db.MustParseWorkload(text).Queries[0]
						got, err := db.Answer(q, mode)
						check("Database.Answer", text, got, err)
						s, err := db.AnswerQueryStream(ctx, text, mode)
						if err == nil {
							got = drainAnswers(t, s)
						}
						check("Database.AnswerQueryStream", text, got, err)
						for _, st := range states {
							if i < len(fx.workload) {
								got, err = st.v.Answer(i)
								check(st.name+"/Answer", text, got, err)
							}
							if st.v == off && i == storeOnly {
								noStore(t, off, text)
								continue
							}
							got, err = st.v.AnswerQuery(text)
							check(st.name+"/AnswerQuery", text, got, err)
							p, err := st.v.Prepare(text)
							if err == nil {
								got, err = p.Answer()
							}
							check(st.name+"/Prepared.Answer", text, got, err)
							s, err = st.v.AnswerQueryStream(ctx, text)
							if err == nil {
								got = drainAnswers(t, s)
							}
							check(st.name+"/AnswerQueryStream", text, got, err)
						}
						got, err = served(dbHTTP, text)
						check("HTTP/Database", text, got, err)
						got, err = served(lvHTTP, text)
						check("HTTP/Maintain", text, got, err)
					}

					for _, depth := range []int{0, 8} {
						live, fresh := lay.db(), lay.db()
						live.MustLoadGraphString(fx.data)
						live.MustLoadSchemaString(fx.schema)
						fresh.MustLoadGraphString(afterUpdates(fx.data, fx.updates))
						fresh.MustLoadSchemaString(fx.schema)
						maintainedAgree(t, live, fresh, fx.workload, adhoc[fx.name], fx.updates, mode, depth)
					}
				})
			}
		}
	}
}

// noStore checks that every text surface of a Views loaded from a bundle
// refuses a query that needs the store with ErrNoStore.
func noStore(t *testing.T, off *Views, text string) {
	t.Helper()
	_, err := off.AnswerQuery(text)
	if !errors.Is(err, ErrNoStore) {
		t.Fatalf("LoadBundle/AnswerQuery(%q) = %v, want ErrNoStore", text, err)
	}
	if _, err = off.Prepare(text); !errors.Is(err, ErrNoStore) {
		t.Fatalf("LoadBundle/Prepare(%q) = %v, want ErrNoStore", text, err)
	}
	s, err := off.AnswerQueryStream(context.Background(), text)
	if !errors.Is(err, ErrNoStore) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("LoadBundle/AnswerQueryStream(%q) = %v, want ErrNoStore", text, err)
	}
}

// maintainedAgree runs the update stream through a maintained Views of db — queue
// depth 0 maintains synchronously, more behind a change queue — and then,
// after a Flush, checks that every maintained extent equals Materialize on
// the updated store and what the uncached oracle answers for the view on
// fresh, a database loaded with the data the stream leaves, and that
// Views.Answer of every workload query and AnswerQuery of every workload and
// ad-hoc text answer what the oracle answers on fresh.
func maintainedAgree(t *testing.T, db, fresh *Database, workload, adhoc, updates []string, mode Reasoning, depth int) {
	t.Helper()
	rec, err := db.Recommend(db.MustParseWorkload(strings.Join(workload, "\n")),
		Options{Reasoning: mode, MaxStates: 200, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := rec.MaintainWithOptions(MaintainOptions{QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	// Served once before the updates, so the dictionary's rendered table
	// exists and has to take in the terms they add.
	lvHTTP := handlerFor(t, lv.AnswerQueryStream)
	if _, err := served(lvHTTP, workload[0]); err != nil {
		t.Fatal(err)
	}
	for _, u := range updates {
		if u[0] == '+' {
			_, err = lv.Insert(u[1:])
		} else {
			_, err = lv.Delete(u[1:])
		}
		if err != nil {
			t.Fatalf("queue=%d: %s: %v", depth, u, err)
		}
	}
	if err := lv.Flush(); err != nil {
		t.Fatal(err)
	}
	mat, err := rec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// A pre-reformulation view is already one member of a reformulation, so
	// its extent is its answer over the explicit triples.
	viewMode := mode
	if mode == ReasoningPre {
		viewMode = ReasoningNone
	}
	for _, v := range rec.state.SortedViews() {
		got, _ := lv.m.Extent(v.ID)
		if want, _ := mat.extents()(v.ID); !got.EqualAsSet(want) {
			t.Errorf("queue=%d: maintained v%d holds %d rows, Materialize %d", depth, int(v.ID), got.Len(), want.Len())
		}
		def := v.Q.Format(db.st.Dict())
		if want := oracle(t, fresh, def, viewMode); !sameAnswers(decoded(db, got), want) {
			t.Errorf("queue=%d: maintained %s = %v, oracle on the updated data %v", depth, def, canon(decoded(db, got)), canon(want))
		}
	}
	for i, text := range append(append([]string(nil), workload...), adhoc...) {
		want := oracle(t, fresh, text, mode)
		if i < len(workload) {
			got, err := lv.Answer(i)
			if err != nil || !sameAnswers(got, want) {
				t.Errorf("queue=%d: Views.Answer(%q) after the updates = %v (%v), oracle %v", depth, text, canon(got), err, canon(want))
			}
		}
		got, err := lv.AnswerQuery(text)
		if err != nil || !sameAnswers(got, want) {
			t.Errorf("queue=%d: Views.AnswerQuery(%q) after the updates = %v (%v), oracle %v", depth, text, canon(got), err, canon(want))
		}
		got, err = served(lvHTTP, text)
		if err != nil || !sameAnswers(got, want) {
			t.Errorf("queue=%d: HTTP %q after the updates = %v (%v), oracle %v", depth, text, canon(got), err, canon(want))
		}
	}
}

// handlerFor is the HTTP tier over one answering surface, wired as
// cmd/rdfviews -serve wires it.
func handlerFor(t *testing.T, open func(ctx context.Context, text string) (*AnswerStream, error)) http.Handler {
	t.Helper()
	srv, err := server.New(server.Config{Backend: server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
		s, err := open(ctx, q)
		if err != nil {
			return nil, err
		}
		return s, nil
	})})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler()
}

// served answers text through h and decodes the SPARQL JSON document into
// rows in head.vars order.
func served(h http.Handler, text string) ([][]string, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(text), nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body)
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct{ Type, Value string } `json:"bindings"`
		} `json:"results"`
		Error *string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return nil, err
	}
	if doc.Error != nil {
		return nil, errors.New(*doc.Error)
	}
	rows := [][]string{}
	for _, b := range doc.Results.Bindings {
		row := make([]string, len(doc.Head.Vars))
		for i, v := range doc.Head.Vars {
			lit, ok := b[v]
			if !ok || lit.Type != "literal" {
				return nil, fmt.Errorf("binding %v: %q is not a literal", b, v)
			}
			row[i] = lit.Value
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// afterUpdates is the data, one triple a line, that the update stream leaves.
func afterUpdates(data string, updates []string) string {
	var lines []string
	for _, l := range strings.Split(data, "\n") {
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	for _, u := range updates {
		lines = slices.DeleteFunc(lines, func(l string) bool { return l == u[1:] })
		if u[0] == '+' {
			lines = append(lines, u[1:])
		}
	}
	return strings.Join(lines, "\n")
}
