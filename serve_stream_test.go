package rdfviews

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// drainAnswers collects a stream into materialized rows (copying each slab).
func drainAnswers(t *testing.T, s *AnswerStream) [][]string {
	t.Helper()
	defer s.Close()
	var out [][]string
	for {
		rows, err := s.Next()
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if rows == nil {
			return out
		}
		for _, r := range rows {
			out = append(out, append([]string(nil), r...))
		}
	}
}

// TestAnswerQueryStreamDifferential checks the streaming surface — which
// AnswerQuery merely collects — against the uncached oracle on every routing
// path of the maintained deployment: view routes (exact and head-permuted),
// store paths, SPARQL text, cold and warm.
func TestAnswerQueryStreamDifferential(t *testing.T) {
	for _, mode := range []Reasoning{ReasoningNone, ReasoningPre} {
		t.Run(string(mode), func(t *testing.T) {
			db, lv := serveLive(t, mode, MaintainOptions{})
			texts := []string{
				`q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
				`q(A, B) :- t(A, hasPainted, B)`,
				`q(Z, X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
				`q(X, Z) :- t(X, hasPainted, guernica), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
				`q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
				`q(X, Y) :- t(X, hasCreated, Y)`,
				`q(X) :- t(X, rdf:type, artist)`,
				`SELECT ?a ?b WHERE { ?a <hasPainted> ?b }`,
			}
			for _, qs := range texts {
				datalog := qs
				if strings.HasPrefix(qs, "SELECT") {
					datalog = `q(A, B) :- t(A, hasPainted, B)`
				}
				want := oracle(t, db, datalog, mode)
				for pass := 0; pass < 2; pass++ { // cold then warm
					s, err := lv.AnswerQueryStream(context.Background(), qs)
					if err != nil {
						t.Fatalf("AnswerQueryStream(%q) pass %d: %v", qs, pass, err)
					}
					got := drainAnswers(t, s)
					if !sameAnswers(got, want) {
						t.Fatalf("stream(%q) pass %d diverged\n got: %v\nwant: %v", qs, pass, got, want)
					}
				}
			}
		})
	}
}

// TestDatabaseAnswerQueryStreamAllModes checks the Database streaming surface
// against Answer across every reasoning mode, including reformulated unions
// (multi-member streaming templates).
func TestDatabaseAnswerQueryStreamAllModes(t *testing.T) {
	for _, mode := range []Reasoning{ReasoningNone, ReasoningSaturate, ReasoningPost, ReasoningPre} {
		t.Run(string(mode), func(t *testing.T) {
			db := serveDB(t)
			for _, qs := range serveQueries {
				q := db.MustParseWorkload(qs).Queries[0]
				want, err := db.Answer(q, mode)
				if err != nil {
					t.Fatalf("Answer(%q): %v", qs, err)
				}
				s, err := db.AnswerQueryStream(context.Background(), qs, mode)
				if err != nil {
					t.Fatalf("AnswerQueryStream(%q): %v", qs, err)
				}
				got := drainAnswers(t, s)
				if !sameAnswers(got, want) {
					t.Fatalf("stream(%q) diverged\n got: %v\nwant: %v", qs, got, want)
				}
			}
		})
	}
}

// TestAnswerStreamColumns pins the head column names the wire protocol
// serves: SPARQL variable names and Datalog head tokens, in head order.
func TestAnswerStreamColumns(t *testing.T) {
	db := serveDB(t)
	cases := []struct {
		query string
		want  []string
	}{
		{`SELECT ?who ?work WHERE { ?who <hasPainted> ?work }`, []string{"who", "work"}},
		{`q(A, B) :- t(A, hasPainted, B)`, []string{"A", "B"}},
		{`SELECT * WHERE { ?s ?p ?o }`, []string{"s", "p", "o"}},
	}
	for _, tc := range cases {
		s, err := db.AnswerQueryStream(context.Background(), tc.query, ReasoningNone)
		if err != nil {
			t.Fatalf("%q: %v", tc.query, err)
		}
		got := s.Columns()
		s.Close()
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%q: columns = %v, want %v", tc.query, got, tc.want)
		}
	}
}

// TestAnswerStreamCancel checks that a context canceled mid-drain surfaces as
// the stream error instead of the stream running to completion.
func TestAnswerStreamCancel(t *testing.T) {
	db := bulkDB(t, 40000)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := db.AnswerQueryStream(ctx, `q(X, P, Y) :- t(X, P, Y)`, ReasoningNone)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Next(); err != nil {
		t.Fatalf("first slab: %v", err)
	}
	cancel()
	for {
		rows, err := s.Next()
		if err == context.Canceled {
			return
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if rows == nil {
			t.Fatal("stream hit EOF without surfacing the canceled context")
		}
	}
}

// TestAnswerStreamNextAfterClose: an answer closed before its end answers
// every later Next with ErrStreamClosed and no rows, and never re-enters the
// pipeline Close released.
func TestAnswerStreamNextAfterClose(t *testing.T) {
	db := bulkDB(t, 5000)
	s, err := db.AnswerQueryStream(context.Background(), `q(X, P, Y) :- t(X, P, Y)`, ReasoningNone)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := s.Next(); err != nil || rows == nil {
		t.Fatalf("first slab: %d rows, %v", len(rows), err)
	}
	s.Close()
	for i := 0; i < 2; i++ {
		if rows, err := s.Next(); rows != nil || err != ErrStreamClosed {
			t.Fatalf("Next after Close = %d rows, %v; want none, ErrStreamClosed", len(rows), err)
		}
	}
}

// bulkDB loads n synthetic triples with values wide enough that a
// materialized decode is unambiguously larger than a batch.
func bulkDB(t testing.TB, n int) *Database {
	t.Helper()
	db := NewDatabase()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "subject_%08d_padpadpad predicate_%02d object_%08d_padpadpadpad .\n", i, i%16, i)
	}
	db.MustLoadGraphString(sb.String())
	return db
}

// TestAnswerStreamMemoryBounded is the O(batch) acceptance test: draining a
// ~120k-row result through the stream must hold batch-sized state, not the
// whole decoded result — mid-drain live heap must stay far below the
// materialized answer. Decoding keeps no per-stream state and the slab is
// reused in both cases. The full scan is non-distinct (full-width head), so the engine
// keeps no dedup set. The type union is serve-scan's shape, ?x a <top> over a
// bulk class hierarchy under post-reformulation: one plan whose union leaf
// merges the subclass scans and drops their duplicates side by side, where
// a union of member plans would hold every row in its dedup set.
func TestAnswerStreamMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk load in -short mode")
	}
	const n = 120000
	cases := []struct {
		name string
		db   func() *Database
		text string
		mode Reasoning
	}{
		{"scan", func() *Database { return bulkDB(t, n) }, `q(X, P, Y) :- t(X, P, Y)`, ReasoningNone},
		{"type-union", func() *Database { return bulkTypeDB(t, n) }, `q(X) :- t(X, rdf:type, top)`, ReasoningPost},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			streamHeldBounded(t, c.db(), c.text, c.mode, n)
		})
	}
}

// streamHeldBounded drains text's stream under mode, expecting n rows, and
// fails when its mid-drain heap delta exceeds a quarter of the materialized
// answer's.
func streamHeldBounded(t *testing.T, db *Database, text string, mode Reasoning, n int) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	base := heap()
	s, err := db.AnswerQueryStream(context.Background(), text, mode)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows, maxDelta, measured := 0, int64(0), false
	for {
		slab, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if slab == nil {
			break
		}
		rows += len(slab)
		if rows > n/4 && !measured { // one mid-drain measurement
			maxDelta, measured = int64(heap())-int64(base), true
		}
	}
	if rows != n {
		t.Fatalf("streamed %d rows, want %d", rows, n)
	}

	// Reference: the materialized decode of the same result. The database
	// stays reachable across the reading, or the collector frees the store
	// under it and the delta reads "answer minus store".
	q := db.MustParseWorkload(text).Queries[0]
	before := heap()
	mat, err := db.Answer(q, mode)
	if err != nil {
		t.Fatal(err)
	}
	matHeap := int64(heap()) - int64(before)
	runtime.KeepAlive(db)
	if len(mat) != n {
		t.Fatalf("materialized %d rows, want %d", len(mat), n)
	}
	runtime.KeepAlive(mat)

	t.Logf("mid-stream heap delta: %.1f MiB; materialized answer: %.1f MiB",
		float64(maxDelta)/(1<<20), float64(matHeap)/(1<<20))
	if matHeap <= 0 {
		t.Fatalf("materialized answer measured %d B: the reference reading is broken", matHeap)
	}
	if maxDelta > matHeap/4 {
		t.Fatalf("streaming held %.1f MiB mid-drain, more than 1/4 of the %.1f MiB materialized result — not O(batch)",
			float64(maxDelta)/(1<<20), float64(matHeap)/(1<<20))
	}
}

// bulkTypeDB types n synthetic subjects into 16 classes under one top class,
// every tenth subject into a second class too, so the reformulated ?x a top
// has 17 alternatives whose answers overlap.
func bulkTypeDB(t testing.TB, n int) *Database {
	t.Helper()
	db := NewDatabase()
	var data, schema strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&data, "subject_%08d_padpadpad rdf:type class_%02d .\n", i, i%16)
		if i%10 == 0 {
			fmt.Fprintf(&data, "subject_%08d_padpadpad rdf:type class_%02d .\n", i, (i+1)%16)
		}
	}
	for c := 0; c < 16; c++ {
		fmt.Fprintf(&schema, "class_%02d rdfs:subClassOf top .\n", c)
	}
	db.MustLoadGraphString(data.String())
	db.MustLoadSchemaString(schema.String())
	return db
}

// TestStreamReadsTheStoreAtOpen checks that a stream answers from the store
// as it was when the stream was opened: one opened before a maintained
// Insert and drained after it returns the rows it had at open, on the
// Database surface under none and post (one atom and a two-atom join, each)
// and on the Views surface (the store path and a view route). A stream
// opened after the Insert sees it. A Views loaded from a bundle, which has
// no store to pin, still refuses the store path.
func TestStreamReadsTheStoreAtOpen(t *testing.T) {
	const insert = `u6 hasPainted monaLisa .`
	ctx := context.Background()
	type opener func(text string) (*AnswerStream, error)
	check := func(t *testing.T, lv *Views, open opener, texts []string) {
		t.Helper()
		held := make([]*AnswerStream, len(texts))
		atOpen := make([][][]string, len(texts))
		for i, text := range texts {
			s, err := open(text)
			if err != nil {
				t.Fatalf("open %q: %v", text, err)
			}
			if atOpen[i], err = collectText(open, text); err != nil {
				t.Fatalf("answer %q: %v", text, err)
			}
			held[i] = s
		}
		if _, err := lv.Insert(insert); err != nil {
			t.Fatal(err)
		}
		for i, text := range texts {
			got := drainAnswers(t, held[i])
			if !sameAnswers(got, atOpen[i]) {
				t.Errorf("%q opened before the insert, drained after it:\n got: %v\nwant: %v", text, got, atOpen[i])
			}
			now, err := collectText(open, text)
			if err != nil {
				t.Fatalf("answer %q: %v", text, err)
			}
			if len(now) != len(atOpen[i])+1 {
				t.Errorf("%q opened after the insert: %d rows, want %d", text, len(now), len(atOpen[i])+1)
			}
		}
	}

	for _, tc := range []struct {
		mode  Reasoning
		texts []string
	}{
		{ReasoningNone, []string{
			`q(A, B) :- t(A, hasPainted, B)`,
			`q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
		}},
		{ReasoningPost, []string{
			`q(A, B) :- t(A, hasCreated, B)`,
			`q(X, Z) :- t(X, isParentOf, Y), t(Y, hasCreated, Z)`,
		}},
	} {
		t.Run("Database/"+string(tc.mode), func(t *testing.T) {
			db, lv := serveLive(t, tc.mode, MaintainOptions{})
			check(t, lv, func(text string) (*AnswerStream, error) {
				return db.AnswerQueryStream(ctx, text, tc.mode)
			}, tc.texts)
		})
	}

	t.Run("Views", func(t *testing.T) {
		_, lv := serveLive(t, ReasoningNone, MaintainOptions{})
		check(t, lv, func(text string) (*AnswerStream, error) {
			return lv.AnswerQueryStream(ctx, text)
		}, []string{
			`q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`, // store path
			`q(A, B) :- t(A, hasPainted, B)`,                      // view route
		})

		var buf bytes.Buffer
		if err := lv.SaveBundle(&buf); err != nil {
			t.Fatal(err)
		}
		off, err := LoadBundle(&buf)
		if err != nil {
			t.Fatal(err)
		}
		noStore(t, off, `q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`)
	})
}

// collectText opens one more stream of the text and drains it.
func collectText(open func(string) (*AnswerStream, error), text string) ([][]string, error) {
	s, err := open(text)
	if err != nil {
		return nil, err
	}
	return s.collect()
}
