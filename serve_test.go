package rdfviews

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfviews/internal/cq"
	"rdfviews/internal/engine"
	"rdfviews/internal/plancache"
	"rdfviews/internal/reason"
)

// Differential tests for the serving tier (serve.go): every cached path must
// return exactly what the uncached oracle (answerRelation) returns, across
// reasoning modes, parameter bindings, head permutations, data churn and
// concurrent cache access.

const serveSchema = `
painter rdfs:subClassOf artist .
sculptor rdfs:subClassOf artist .
hasPainted rdfs:subPropertyOf hasCreated .
hasCreated rdfs:domain artist .
`

const serveData = `
u1 hasPainted starryNight .
u1 isParentOf u2 .
u2 hasPainted irises .
u2 hasPainted sunflowers .
u3 isParentOf u4 .
u3 hasPainted guernica .
u4 hasPainted lesDemoiselles .
u5 hasPainted starryNight .
u5 isParentOf u6 .
u6 rdf:type painter .
u7 rdf:type sculptor .
u8 rdf:type artist .
`

func serveDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase()
	db.MustLoadGraphString(serveData)
	db.MustLoadSchemaString(serveSchema)
	return db
}

// canon sorts decoded rows into a comparable form.
func canon(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

func sameAnswers(a, b [][]string) bool {
	ca, cb := canon(a), canon(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// answerRelation evaluates a query directly on the database under the
// reasoning mode, deriving schema closure and saturation itself: it is the
// uncached oracle the differential tests compare the pinned paths against.
func (db *Database) answerRelation(q *cq.Query, mode Reasoning) (*engine.Relation, error) {
	switch mode {
	case ReasoningNone, "":
		return engine.Materialize(db.st, q)
	case ReasoningSaturate:
		schema := reason.NewSchema(db.schema, db.st.Dict())
		return engine.Materialize(reason.Saturate(db.st, schema), q)
	case ReasoningPost, ReasoningPre:
		schema := reason.NewSchema(db.schema, db.st.Dict())
		u, err := reason.Reformulate(q, schema, 0)
		if err != nil {
			return nil, err
		}
		return engine.MaterializeUCQ(db.st, u)
	}
	return nil, fmt.Errorf("rdfviews: unknown reasoning mode %q", mode)
}

// oracle answers q uncached, straight through answerRelation.
func oracle(t *testing.T, db *Database, q string, mode Reasoning) [][]string {
	t.Helper()
	w := db.MustParseWorkload(q)
	rel, err := db.answerRelation(w.Queries[0], mode)
	if err != nil {
		t.Fatalf("oracle %q under %q: %v", q, mode, err)
	}
	return decoded(db, rel)
}

// decoded renders an oracle relation through the facade's one decoder.
func decoded(db *Database, rel *engine.Relation) [][]string {
	s := &AnswerStream{d: db.st.Dict()}
	view := s.d.View()
	out := make([][]string, rel.Len())
	for i := range out {
		row := rel.Row(i, nil)
		out[i] = make([]string, len(row))
		for k, id := range row {
			out[i][k] = s.decode(view, id)
		}
	}
	return out
}

var serveQueries = []string{
	// Workload-style join with a liftable constant.
	`q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
	// Same shape, different constant: shares the cached skeleton.
	`q(X, Z) :- t(X, hasPainted, guernica), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
	// Same shape, permuted head: must get its own artifact.
	`q(Z, X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
	// Type atom: the object must not lift (reformulation matches on it).
	`q(X) :- t(X, rdf:type, artist)`,
	`q(X) :- t(X, rdf:type, painter)`,
	// Subproperty atom: reformulation expands hasCreated.
	`q(X, Y) :- t(X, hasCreated, Y)`,
	// Plain scans and a cross-shape join.
	`q(X, Y) :- t(X, hasPainted, Y)`,
	`q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
}

func TestServeAnswerMatchesOracleAllModes(t *testing.T) {
	for _, mode := range []Reasoning{ReasoningNone, ReasoningSaturate, ReasoningPost, ReasoningPre} {
		t.Run(string(mode), func(t *testing.T) {
			db := serveDB(t)
			check := func(stage string) {
				t.Helper()
				for _, qs := range serveQueries {
					want := oracle(t, db, qs, mode)
					q := db.MustParseWorkload(qs).Queries[0]
					// Twice: cold (compile) and warm (cache hit) must agree.
					for pass := 0; pass < 2; pass++ {
						got, err := db.Answer(q, mode)
						if err != nil {
							t.Fatalf("%s: Answer(%q) pass %d: %v", stage, qs, pass, err)
						}
						if !sameAnswers(got, want) {
							t.Fatalf("%s: Answer(%q) pass %d diverged from oracle\n got: %v\nwant: %v",
								stage, qs, pass, got, want)
						}
					}
				}
			}
			check("initial")
			// Small churn: the cached plans stay valid (drift below threshold)
			// but must execute against the new data.
			db.MustLoadGraphString("u9 hasPainted starryNight .\nu9 isParentOf u2 .")
			check("after small growth")
			// Large churn: past the drift threshold, artifacts recompile.
			var bulk strings.Builder
			for i := 0; i < 200; i++ {
				fmt.Fprintf(&bulk, "bulk%d hasPainted bulkwork%d .\n", i, i%7)
			}
			db.MustLoadGraphString(bulk.String())
			check("after bulk growth")
		})
	}
}

func TestServeExplainQueryWarmsAnswerCache(t *testing.T) {
	db := serveDB(t)
	q := db.MustParseWorkload(serveQueries[0]).Queries[0]
	out, err := db.ExplainQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"IndexScan", "perm="} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExplainQuery missing %q:\n%s", want, out)
		}
	}
	before := db.CacheStats()
	if _, err := db.Answer(q, ReasoningNone); err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("Answer after ExplainQuery was not a cache hit: %+v -> %+v", before, after)
	}
}

func TestServeInvalidatePlansForcesRecompile(t *testing.T) {
	db := serveDB(t)
	q := db.MustParseWorkload(serveQueries[0]).Queries[0]
	want := oracle(t, db, serveQueries[0], ReasoningNone)
	if _, err := db.Answer(q, ReasoningNone); err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats()
	db.InvalidatePlans()
	got, err := db.Answer(q, ReasoningNone)
	if err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.Misses <= before.Misses {
		t.Fatalf("InvalidatePlans did not force a recompile: %+v -> %+v", before, after)
	}
	if !sameAnswers(got, want) {
		t.Fatalf("answer after invalidation diverged: %v vs %v", got, want)
	}
}

// serveLive builds a maintained deployment over a two-query workload.
func serveLive(t *testing.T, mode Reasoning, opts MaintainOptions) (*Database, *Views) {
	t.Helper()
	db := serveDB(t)
	w := db.MustParseWorkload(
		`q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)` + "\n" +
			`q(A, B) :- t(A, hasPainted, B)`)
	rec, err := db.Recommend(w, Options{Timeout: 2 * time.Second, Reasoning: mode})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := rec.MaintainWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lv.Close() })
	return db, lv
}

func TestServeLiveViewsAnswerQueryDifferential(t *testing.T) {
	for _, mode := range []Reasoning{ReasoningNone, ReasoningPre} {
		t.Run(string(mode), func(t *testing.T) {
			db, lv := serveLive(t, mode, MaintainOptions{})
			texts := []string{
				// Exact workload queries: view route.
				`q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
				`q(A, B) :- t(A, hasPainted, B)`,
				// Workload shape, permuted head: still a view route, projected.
				`q(Z, X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
				// Workload skeleton under a different constant: store path.
				`q(X, Z) :- t(X, hasPainted, guernica), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
				// Ad-hoc shapes: store path.
				`q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
				`q(X, Y) :- t(X, hasCreated, Y)`,
				`q(X) :- t(X, rdf:type, artist)`,
			}
			check := func(stage string) {
				t.Helper()
				for _, qs := range texts {
					want := oracle(t, db, qs, mode)
					for pass := 0; pass < 2; pass++ {
						got, err := lv.AnswerQuery(qs)
						if err != nil {
							t.Fatalf("%s: AnswerQuery(%q) pass %d: %v", stage, qs, pass, err)
						}
						if !sameAnswers(got, want) {
							t.Fatalf("%s: AnswerQuery(%q) pass %d diverged\n got: %v\nwant: %v",
								stage, qs, pass, got, want)
						}
					}
				}
			}
			check("initial")
			// Churn through the maintainer: extents and store move together,
			// cached artifacts must keep answering fresh data.
			if _, err := lv.Insert("u9 hasPainted starryNight ."); err != nil {
				t.Fatal(err)
			}
			if _, err := lv.Insert("u9 isParentOf u2 ."); err != nil {
				t.Fatal(err)
			}
			if _, err := lv.Delete("u2 hasPainted irises ."); err != nil {
				t.Fatal(err)
			}
			check("after updates")

			// SPARQL surface reaches the same cache.
			got, err := lv.AnswerQuery(`SELECT ?a ?b WHERE { ?a <hasPainted> ?b }`)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(got, oracle(t, db, `q(A, B) :- t(A, hasPainted, B)`, mode)) {
				t.Fatalf("SPARQL answer diverged: %v", got)
			}

			snap := lv.CacheStats()
			if snap.Hits == 0 || snap.Misses == 0 {
				t.Fatalf("cache not exercised: %+v", snap)
			}
		})
	}
}

func TestServePreparedBindings(t *testing.T) {
	db, lv := serveLive(t, ReasoningNone, MaintainOptions{})
	p, err := lv.Prepare(`q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1 (the lifted painting)", p.NumParams())
	}
	// Default binding: the original constant.
	got, err := p.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle(t, db, `q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`, ReasoningNone); !sameAnswers(got, want) {
		t.Fatalf("prepared default binding diverged: %v vs %v", got, want)
	}
	before := lv.CacheStats()
	for _, painting := range []string{"guernica", "irises", "starryNight", "neverPainted"} {
		got, err := p.AnswerBound(painting)
		if err != nil {
			t.Fatalf("AnswerBound(%s): %v", painting, err)
		}
		concrete := fmt.Sprintf(`q(X, Z) :- t(X, hasPainted, %s), t(X, isParentOf, Y), t(Y, hasPainted, Z)`, painting)
		if want := oracle(t, db, concrete, ReasoningNone); !sameAnswers(got, want) {
			t.Fatalf("AnswerBound(%s) diverged: %v vs %v", painting, got, want)
		}
	}
	after := lv.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("rebinding recompiled: %+v -> %+v", before, after)
	}
	if after.Hits < before.Hits+4 {
		t.Fatalf("rebinding did not hit the cache: %+v -> %+v", before, after)
	}

	// Arity and constant-ness are enforced.
	if _, err := p.AnswerBound(); err == nil {
		t.Fatal("AnswerBound with 0 args must fail on a 1-param query")
	}
	if _, err := p.AnswerBound("?x"); err == nil {
		t.Fatal("AnswerBound with a variable must fail")
	}
}

// TestServePlanCacheDisabledOracle clears the plan cache: every call parses
// and compiles afresh (the shared admission's uncached branch) and still
// answers like the oracle.
func TestServePlanCacheDisabledOracle(t *testing.T) {
	db, lv := serveLive(t, ReasoningNone, MaintainOptions{})
	ledger := lv.cache.Counters()
	lv.cache = nil
	qs := `q(X, Z) :- t(X, hasPainted, guernica), t(X, isParentOf, Y), t(Y, hasPainted, Z)`
	want := oracle(t, db, qs, ReasoningNone)
	for pass := 0; pass < 2; pass++ {
		got, err := lv.AnswerQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(got, want) {
			t.Fatalf("cache-off answer diverged: %v vs %v", got, want)
		}
	}
	if snap := ledger.Snapshot(); snap.Hits != 0 || snap.Misses != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", snap)
	}
}

// TestServeCacheChurnConcurrent hammers one Views with concurrent ad-hoc
// queries, prepared bindings and updates; run under -race in CI. Every
// answer must be error-free, and the final state must match the oracle.
func TestServeCacheChurnConcurrent(t *testing.T) {
	db, lv := serveLive(t, ReasoningNone, MaintainOptions{QueueDepth: 256})
	prep, err := lv.Prepare(`q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		`q(A, B) :- t(A, hasPainted, B)`,
		`q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
		`q(X) :- t(X, rdf:type, artist)`,
		`q(Z, X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
	}
	paintings := []string{"starryNight", "irises", "guernica", "sunflowers"}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(err error) {
		if err != nil {
			select {
			case errs <- err:
			default:
			}
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				line := fmt.Sprintf("churn%d_%d hasPainted churnwork%d .", w, i, i%5)
				if _, err := lv.Insert(line); err != nil {
					report(err)
					return
				}
				if i%3 == 0 {
					if _, err := lv.Delete(line); err != nil {
						report(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := lv.AnswerQuery(texts[(r+i)%len(texts)]); err != nil {
					report(err)
					return
				}
				if _, err := prep.AnswerBound(paintings[(r*7+i)%len(paintings)]); err != nil {
					report(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := lv.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, qs := range texts {
		want := oracle(t, db, qs, ReasoningNone)
		got, err := lv.AnswerQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(got, want) {
			t.Fatalf("post-churn %q diverged\n got: %v\nwant: %v", qs, got, want)
		}
	}
}

// TestParseServeQueryRoutesBySyntax pins the SPARQL/Datalog sniffing: the
// text is SPARQL only when its first token is the keyword SELECT or PREFIX, so
// Datalog heads that merely start with those letters keep parsing as Datalog
// on every ad-hoc surface.
func TestParseServeQueryRoutesBySyntax(t *testing.T) {
	db, lv := serveLive(t, ReasoningNone, MaintainOptions{})
	want := oracle(t, db, `q(X) :- t(X, hasPainted, Y)`, ReasoningNone)
	cases := []struct {
		text string
		cols []string
	}{
		{`selected(X) :- t(X, hasPainted, Y)`, []string{"X"}},
		{`prefixes(X) :- t(X, hasPainted, Y)`, []string{"X"}},
		{`Selected(X) :- t(X, hasPainted, Y)`, []string{"X"}},
		{`q(X) :- t(X, hasPainted, Y)`, []string{"X"}},
		{`SELECT ?x WHERE { ?x <hasPainted> ?y }`, []string{"x"}},
		{"  select\t?x where { ?x <hasPainted> ?y }", []string{"x"}},
		{`PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x <hasPainted> ?y }`, []string{"x"}},
		{"prefix ex: <http://example.org/>\nSELECT ?x WHERE { ?x <hasPainted> ?y }", []string{"x"}},
	}
	for _, tc := range cases {
		_, names, err := parseServeQuery(db.st.Dict(), tc.text)
		if err != nil {
			t.Errorf("parseServeQuery(%q): %v", tc.text, err)
			continue
		}
		if fmt.Sprint(names) != fmt.Sprint(tc.cols) {
			t.Errorf("parseServeQuery(%q) head names = %v, want %v", tc.text, names, tc.cols)
		}
		got, err := lv.AnswerQuery(tc.text)
		if err != nil {
			t.Fatalf("AnswerQuery(%q): %v", tc.text, err)
		}
		if !sameAnswers(got, want) {
			t.Errorf("AnswerQuery(%q) = %v, want %v", tc.text, got, want)
		}
		for _, open := range []func() (*AnswerStream, error){
			func() (*AnswerStream, error) { return lv.AnswerQueryStream(context.Background(), tc.text) },
			func() (*AnswerStream, error) {
				return db.AnswerQueryStream(context.Background(), tc.text, ReasoningNone)
			},
		} {
			s, err := open()
			if err != nil {
				t.Fatalf("AnswerQueryStream(%q): %v", tc.text, err)
			}
			if got := drainAnswers(t, s); !sameAnswers(got, want) {
				t.Errorf("AnswerQueryStream(%q) = %v, want %v", tc.text, got, want)
			}
		}
	}
	// Keyword directly followed by ? or *: still SPARQL's to accept or reject.
	for _, text := range []string{`SELECT?x WHERE { ?x <hasPainted> ?y }`, `select* where { ?s ?p ?o }`} {
		if _, _, err := parseServeQuery(db.st.Dict(), text); err != nil && !strings.Contains(err.Error(), "sparql") {
			t.Errorf("parseServeQuery(%q) was not routed to the SPARQL parser: %v", text, err)
		}
	}
}

// TestCachedTemplatesHoldNoSnapshot checks that a cached store template does
// not keep the snapshot it was compiled against alive: templates compiled
// between bulk inserts, each of which merges the store's overlays into new
// base indexes, would otherwise hold one generation of the indexes apiece.
// The heap the plan cache holds on to is measured by swapping in an empty
// cache.
func TestCachedTemplatesHoldNoSnapshot(t *testing.T) {
	db := NewDatabase()
	const n = 60000
	load := func(from, to int) {
		var sb strings.Builder
		for i := from; i < to; i++ {
			fmt.Fprintf(&sb, "s%d p%d o%d .\n", i, i%40, i%5000)
		}
		db.MustLoadGraphString(sb.String())
	}
	load(0, n)
	next := n
	shapes := 0
	for k := 1; k <= 4; k++ {
		atoms := make([]string, k)
		for j := range atoms {
			atoms[j] = fmt.Sprintf("t(X%d, p%d, X%d)", j, j, j+1)
		}
		for h := 0; h <= k; h++ {
			q := fmt.Sprintf("q(X%d) :- %s", h, strings.Join(atoms, ", "))
			s, err := db.AnswerQueryStream(context.Background(), q, ReasoningNone)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			shapes++
			load(next, next+600) // past the overlay bound: a merge
			next += 600
		}
	}
	if got := db.cache.Len(); got < 2*shapes { // a statement and an artifact each
		t.Fatalf("plan cache holds %d entries, want the %d statements and templates", got, 2*shapes)
	}
	held := heapAfterGC()
	db.cache = plancache.New(plancache.DefaultCapacity, nil)
	base := heapAfterGC()
	runtime.KeepAlive(db)
	if retained := held - base; retained > base/4 {
		t.Fatalf("%d cached templates hold %d KB beyond the %d KB of the database", shapes, retained>>10, base>>10)
	}
}

func heapAfterGC() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
