package rdfviews

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"rdfviews/internal/algebra"
	"rdfviews/internal/persist"
	"rdfviews/internal/rdf"
)

func TestDatabaseSaveOpenRoundTrip(t *testing.T) {
	db := NewDatabase()
	db.MustLoadGraphString(paintersData)
	db.MustLoadSchemaString(museumSchema)

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTriples() != db.NumTriples() {
		t.Fatalf("triples %d != %d", back.NumTriples(), db.NumTriples())
	}
	if back.SchemaSize() != db.SchemaSize() {
		t.Fatalf("schema %d != %d", back.SchemaSize(), db.SchemaSize())
	}
	// The restored database answers queries identically.
	w := back.MustParseWorkload(paintersQuery)
	rows, err := back.Answer(w.Queries[0], ReasoningNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("restored answers = %v", rows)
	}
}

func TestOpenDatabaseRejectsGarbage(t *testing.T) {
	if _, err := OpenDatabase(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestBundleOfflineRoundTrip is the three-tier shipping test: a bundle
// written by the server answers the workload on a client that has neither
// the database nor the library's server-side state.
func TestBundleOfflineRoundTrip(t *testing.T) {
	db := paintersDB(t)
	w := db.MustParseWorkload(paintersQuery + "\nq(A, B) :- t(A, hasPainted, B)")
	rec, err := db.Recommend(w, Options{Timeout: 2 * time.Second})
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

	// "Client side": only the bundle bytes.
	off, err := LoadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if off.NumQueries() != 2 {
		t.Fatalf("NumQueries = %d", off.NumQueries())
	}
	if off.NumRows() == 0 {
		t.Fatal("no shipped rows")
	}
	if off.QueryText(0) == "" || off.QueryText(99) != "" {
		t.Error("QueryText wrong")
	}
	for i := 0; i < off.NumQueries(); i++ {
		got, err := off.Answer(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mat.Answer(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: bundle %d rows, direct %d", i, len(got), len(want))
		}
	}
	if _, err := off.Answer(99); err == nil {
		t.Error("out-of-range query must fail")
	}
}

func TestBundleWithReasoning(t *testing.T) {
	db := NewDatabase()
	db.MustLoadGraphString(museumData)
	db.MustLoadSchemaString(museumSchema)
	w := db.MustParseWorkload(`q(X, Y) :- t(X, rdf:type, picture), t(X, isLocatIn, Y)`)
	rec, err := db.Recommend(w, Options{Reasoning: ReasoningPost, Timeout: 2 * time.Second})
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
	rows, err := off.Answer(0)
	if err != nil {
		t.Fatal(err)
	}
	// The shipped views already include the implicit triples.
	if len(rows) != 2 {
		t.Fatalf("bundle answers = %v", rows)
	}
}

func TestLoadBundleRejectsGarbage(t *testing.T) {
	if _, err := LoadBundle(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestSaveBundleIsReproducible: one view set saves to the same bytes every
// time, and a loaded bundle saves back to the bytes it was loaded from.
func TestSaveBundleIsReproducible(t *testing.T) {
	db := NewDatabase()
	db.MustLoadGraphString(paintersData)
	db.MustLoadSchemaString(serveSchema)
	w := db.MustParseWorkload(paintersQuery + "\nq(A, B) :- t(A, hasCreated, B)\nq(X) :- t(X, rdf:type, artist)")
	rec, err := db.Recommend(w, Options{Reasoning: ReasoningPre, MaxStates: 200, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rec.NumViews() < 3 {
		t.Fatalf("%d views; the check needs several", rec.NumViews())
	}
	mat, err := rec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	save := func(v *Views) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := v.SaveBundle(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := save(mat)
	for i := 0; i < 10; i++ {
		if !bytes.Equal(save(mat), first) {
			t.Fatalf("save %d differs from the first", i+2)
		}
	}
	off, err := LoadBundle(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(off), first) {
		t.Fatal("a loaded bundle saves to other bytes than it was loaded from")
	}
}

// TestBundleWithoutQueriesAnswers: a bundle in the layout written before
// bundles shipped the workload queries still loads and answers every
// workload query by index; with no queries to match, ad-hoc text cannot be
// routed to the views and fails with ErrNoStore.
func TestBundleWithoutQueriesAnswers(t *testing.T) {
	db := paintersDB(t)
	w := db.MustParseWorkload(paintersQuery + "\nq(A, B) :- t(A, hasPainted, B)")
	rec, err := db.Recommend(w, Options{MaxStates: 200, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := rec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := persist.NewBundle(mat.dict, mat.texts, mat.workload, mat.plans, mat.defs, mat.extents())
	if err != nil {
		t.Fatal(err)
	}
	// The bundle layout without the Queries field.
	type oldBundle struct {
		Version    int
		Terms      []rdf.Term
		QueryTexts []string
		Plans      []algebra.Plan
		Views      []persist.BundleView
	}
	var buf bytes.Buffer
	old := oldBundle{b.Version, b.Terms, b.QueryTexts, b.Plans, b.Views}
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	off, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Len(); i++ {
		got, err := off.Answer(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mat.Answer(i)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(got, want) {
			t.Fatalf("query %d: old bundle answers %v, the materialized views %v", i, canon(got), canon(want))
		}
		if off.QueryText(i) != mat.QueryText(i) {
			t.Fatalf("query %d renders %q, want %q", i, off.QueryText(i), mat.QueryText(i))
		}
	}
	if _, err := off.AnswerQuery(paintersQuery); !errors.Is(err, ErrNoStore) {
		t.Fatalf("AnswerQuery on a bundle without queries = %v, want ErrNoStore", err)
	}
}

// TestUnmaintainedViewsRefuseUpdates: a materialized or loaded Views has no
// maintainer, so Insert and Delete fail with ErrNotMaintained and change
// nothing, and the freshness surface reports nothing pending.
func TestUnmaintainedViewsRefuseUpdates(t *testing.T) {
	db := paintersDB(t)
	rec, err := db.Recommend(db.MustParseWorkload(paintersQuery), Options{MaxStates: 200, Timeout: 10 * time.Second})
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
	triples := db.NumTriples()
	for name, v := range map[string]*Views{"Materialize": mat, "LoadBundle": off} {
		if _, err := v.Insert("u6 hasPainted wheatfield ."); !errors.Is(err, ErrNotMaintained) {
			t.Errorf("%s: Insert = %v, want ErrNotMaintained", name, err)
		}
		if _, err := v.Delete("u1 hasPainted starryNight ."); !errors.Is(err, ErrNotMaintained) {
			t.Errorf("%s: Delete = %v, want ErrNotMaintained", name, err)
		}
		deltas, behind := v.Lag()
		if v.Flush() != nil || v.Close() != nil || v.Async() || v.PublishGen() != 0 || deltas != 0 || behind != 0 {
			t.Errorf("%s: the freshness surface reports maintenance", name)
		}
	}
	if db.NumTriples() != triples {
		t.Fatalf("refused updates changed the database: %d triples, want %d", db.NumTriples(), triples)
	}
}
