// Package rdfviews is a materialized-view selection toolkit for Semantic Web
// databases, implementing Goasdoué, Karanasos, Leblay & Manolescu, "View
// Selection in Semantic Web Databases" (PVLDB 5(2), 2011).
//
// Given an RDF database (with an optional RDF Schema) and a workload of
// conjunctive (basic graph pattern) queries, the library recommends a set of
// views to materialize together with one equivalent rewriting per workload
// query, minimizing a combination of query evaluation cost, view storage
// space and view maintenance cost. All workload queries can then be answered
// from the views alone — enabling the paper's three-tier/off-line deployment
// where clients never touch the database.
//
// Implicit triples entailed by the RDF Schema are honored, as
// Options.Reasoning selects, by the paper's query reformulation algorithm:
// a query or view reformulated into a union of conjunctive queries over the
// explicit triples answers what it would answer on the saturated database
// (Theorem 4.2), so every mode stores, answers, materializes and maintains
// over the explicit triples alone.
//
// # Architecture
//
// The library is layered as a small database system:
//
//   - internal/store holds the dictionary-encoded triple table, hash-
//     partitioned by subject into shards (one by default; see
//     NewDatabaseSharded), each reading all six sorted permutations (the
//     Hexastore scheme the paper's platform section assumes) from four kept
//     indexes: SOP and OPS are sorted at read time from the SPO and OSP runs
//     of their leading column. Indexes are maintained incrementally under
//     insert/delete, and ordered prefix cursors merge the shard streams under
//     per-shard snapshot isolation.
//   - internal/engine evaluates queries in two stages. A planner compiles
//     each conjunctive query into a physical plan — permutation-aware index
//     scans, merge joins when both inputs arrive sorted on the join variable
//     through a compatible permutation, hash joins otherwise, then
//     projection and duplicate elimination — choosing the join order from
//     the same cardinality statistics the cost model uses. Over a sharded
//     store, every scan reads one cursor merged over its route's shards. A
//     streaming executor then pulls dictionary-encoded
//     tuples through slice-based variable registers (no per-row maps, no
//     string keys). Rewriting plans over materialized views execute on the
//     same operator set, whose hash joins choose their build side from the
//     extent cardinalities. Every query runs on its caller's goroutine.
//     Database.ExplainQuery and Recommendation.ExplainPhysical render
//     the compiled physical plans.
//   - internal/maintain keeps view extents synchronized with the store under
//     triple insertions and deletions (the delta propagation the paper's VMC
//     cost charges for), each view as the union of its conjunctive members
//     (its reformulation under RDFS). One fold runs DRed over the
//     epoch-tagged store snapshots before and after a batch of deltas and
//     publishes the next extent generation: a synchronous update folds its
//     own one-delta batch in place before returning; asynchronously a
//     background refresher folds batches from a bounded change queue and
//     publishes copy-on-write extents atomically. See
//     Recommendation.Maintain/MaintainWithOptions, the Views Flush/Lag
//     freshness surface and the StaleReadPolicy.
//   - internal/cq, internal/algebra, internal/cost, internal/stats and
//     internal/core implement the paper proper: conjunctive query theory,
//     the rewriting algebra, the cost model of Section 3.3, its statistics
//     providers, and the view-selection search strategies of Section 5.
//
// Quick start:
//
//	db := rdfviews.NewDatabase()
//	db.MustLoadGraphString(`
//	    u1 hasPainted starryNight .
//	    u1 isParentOf u2 .
//	    u2 hasPainted irises .`)
//	wl := db.MustParseWorkload(`
//	    q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`)
//	rec, err := db.Recommend(wl, rdfviews.Options{})
//	// rec.ViewDefinitions() — the views to materialize
//	// rec.Materialize()    — their extents as Views, answering over them
//	// views.SaveBundle(w)  — ship them; LoadBundle(r) answers on the client
package rdfviews

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"rdfviews/internal/cq"
	"rdfviews/internal/plancache"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/stats"
	"rdfviews/internal/store"
)

// Database holds the RDF data (a dictionary-encoded, fully indexed triple
// table) and the optional RDF Schema. Create with NewDatabase.
type Database struct {
	// front is the serving tier (serve.go): Answer, AnswerQueryStream and
	// ExplainQuery cache statements and compiled artifacts keyed by
	// canonicalized, constant-lifted query shape.
	front
	schema *rdf.Schema

	pin pinned
}

// newDatabase wraps a store and schema with an empty plan cache.
func newDatabase(st *store.Store, schema *rdf.Schema) *Database {
	return &Database{front: front{cache: plancache.New(plancache.DefaultCapacity, nil), st: st}, schema: schema}
}

// pinned holds what the database derives from (data, schema) alone and keeps
// across calls: the encoded, transitively closed schema, and the
// post-reformulation statistics provider with every count it has evaluated.
// Each is made by the first caller that needs it at a database version —
// (store epoch, schema size), compared in lockAt, the one place that does —
// and both are dropped together when the next caller finds the version
// moved: a load, a schema statement, an insert or delete through maintained
// Views. Nothing on a write path touches the pin.
//
// Dropping replaces; it never empties an object in place. A search in
// flight, a Recommendation and its estimator, a Views keep the objects they
// were handed, which stay consistent with one another and never reach a
// later version's callers.
//
// What it costs to keep: the schema is its closure maps; the provider is the
// store snapshot it counts on — the version's shard states, kept alive until
// the pin is dropped — and one map entry and one cell per pattern a search
// has asked for — tens per workload, at most stats' maxCells. While the store
// holds still they are about 0.5 B per triple on the benchmark's
// select-reform.
type pinned struct {
	mu        sync.Mutex
	epoch     uint64
	schemaLen int
	// schema is what Recommend, Answer's reformulation and the provider
	// below reason with.
	schema *reason.Schema
	// reform is the statistics provider Recommend costs with under
	// ReasoningPost (and so under ReasoningSaturate).
	reform *stats.ReformulatedStats
}

// lockAt locks the pin for the database version (store epoch, schema size),
// first dropping whatever was derived from another one. The caller unlocks.
func (p *pinned) lockAt(epoch uint64, schemaLen int) {
	p.mu.Lock()
	if p.epoch != epoch || p.schemaLen != schemaLen {
		p.epoch, p.schemaLen = epoch, schemaLen
		p.schema, p.reform = nil, nil
	}
}

// reasonSchema returns the schema encoded against the dictionary with its
// RDFS closure, derived once per database version.
func (db *Database) reasonSchema() *reason.Schema {
	db.pin.lockAt(db.st.Epoch(), db.schema.Len())
	defer db.pin.mu.Unlock()
	return db.pinnedSchema()
}

// pinnedSchema is reasonSchema for callers that hold the pin.
func (db *Database) pinnedSchema() *reason.Schema {
	if db.pin.schema == nil {
		db.pin.schema = reason.NewSchema(db.schema, db.st.Dict())
	}
	return db.pin.schema
}

// reformStats returns the post-reformulation statistics provider of the
// current database version. The first search to ask for a pattern evaluates
// its union; every later one, in this call or any other at the version,
// reads the count.
func (db *Database) reformStats() *stats.ReformulatedStats {
	db.pin.lockAt(db.st.Epoch(), db.schema.Len())
	defer db.pin.mu.Unlock()
	if db.pin.reform == nil {
		db.pin.reform = stats.NewReformulatedStats(db.st, db.pinnedSchema())
	}
	return db.pin.reform
}

// NewDatabase returns an empty database with an empty schema, backed by a
// single-shard store.
func NewDatabase() *Database {
	return newDatabase(store.New(), rdf.NewSchema())
}

// NewDatabaseSharded returns an empty database whose triple store is
// hash-partitioned (by subject) across k shards. A subject-bound access then
// opens one shard, and incremental index maintenance touches one shard per
// update. k is clamped to [1, 256]; with k=1 the database behaves exactly
// like NewDatabase.
func NewDatabaseSharded(k int) *Database {
	return newDatabase(store.NewSharded(k), rdf.NewSchema())
}

// NewDatabaseDual returns an empty database over a dual-partitioned store:
// subjectK subject-hash shards plus objectK object-hash replica shards.
// Placement routing then prunes every access to the minimal shard subset —
// subject-bound patterns open one subject shard, object-bound patterns one
// object shard (the fan-out the replica side exists to avoid) — at the cost
// of storing each triple twice. Both counts are clamped to [1, 256] and
// [0, 256] respectively; objectK=0 is exactly NewDatabaseSharded(subjectK).
func NewDatabaseDual(subjectK, objectK int) *Database {
	return newDatabase(store.NewDual(subjectK, objectK), rdf.NewSchema())
}

// LoadGraph parses N-Triples-style input (see internal syntax notes: full
// <IRIs>, bare tokens, "literals", _:blanks) and loads it. RDFS statements
// (subClassOf, subPropertyOf, domain, range) found in the input are added to
// the schema as well as to the data.
func (db *Database) LoadGraph(r io.Reader) (int, error) {
	g, err := rdf.Parse(r)
	if err != nil {
		return 0, err
	}
	return db.addGraph(g)
}

// LoadGraphString is LoadGraph over a string.
func (db *Database) LoadGraphString(s string) (int, error) {
	return db.LoadGraph(strings.NewReader(s))
}

// MustLoadGraphString panics on error; for examples and tests.
func (db *Database) MustLoadGraphString(s string) int {
	n, err := db.LoadGraphString(s)
	if err != nil {
		panic(err)
	}
	return n
}

func (db *Database) addGraph(g rdf.Graph) (int, error) {
	sch, err := rdf.SchemaFromGraph(g)
	if err != nil {
		return 0, err
	}
	for _, st := range sch.Statements() {
		db.schema.Add(st)
	}
	var data rdf.Graph
	for _, t := range g {
		if !rdf.IsSchemaProperty(t.P.Value) {
			data = append(data, t)
		}
	}
	return db.st.AddGraph(data)
}

// LoadSchema parses RDFS statements only (data triples in the input are an
// error, keeping schema files honest).
func (db *Database) LoadSchema(r io.Reader) (int, error) {
	g, err := rdf.Parse(r)
	if err != nil {
		return 0, err
	}
	for _, t := range g {
		if !rdf.IsSchemaProperty(t.P.Value) {
			return 0, fmt.Errorf("rdfviews: non-schema triple in schema input: %v", t)
		}
	}
	sch, err := rdf.SchemaFromGraph(g)
	if err != nil {
		return 0, err
	}
	for _, st := range sch.Statements() {
		db.schema.Add(st)
	}
	return sch.Len(), nil
}

// LoadSchemaString is LoadSchema over a string.
func (db *Database) LoadSchemaString(s string) (int, error) {
	return db.LoadSchema(strings.NewReader(s))
}

// MustLoadSchemaString panics on error; for examples and tests.
func (db *Database) MustLoadSchemaString(s string) int {
	n, err := db.LoadSchemaString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// NumTriples returns the number of distinct data triples.
func (db *Database) NumTriples() int { return db.st.Len() }

// SchemaSize returns the number of RDFS statements.
func (db *Database) SchemaSize() int { return db.schema.Len() }

// Store exposes the underlying triple store for advanced integrations
// (experiment harnesses, custom statistics).
func (db *Database) Store() *store.Store { return db.st }

// Schema exposes the underlying RDF schema.
func (db *Database) Schema() *rdf.Schema { return db.schema }

// Workload is a parsed set of conjunctive queries sharing the database's
// dictionary. Queries use disjoint variable namespaces.
type Workload struct {
	Queries []*cq.Query
}

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.Queries) }

// ParseWorkload parses one query per non-empty, non-comment line, in the
// Datalog-like syntax of the paper:
//
//	q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)
func (db *Database) ParseWorkload(text string) (*Workload, error) {
	p := cq.NewParser(db.st.Dict())
	qs, err := p.ParseWorkload(text)
	if err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("rdfviews: empty workload")
	}
	return &Workload{Queries: qs}, nil
}

// MustParseWorkload panics on error; for examples and tests.
func (db *Database) MustParseWorkload(text string) *Workload {
	w, err := db.ParseWorkload(text)
	if err != nil {
		panic(err)
	}
	return w
}

// ParseSPARQLWorkload parses a workload of SPARQL basic-graph-pattern SELECT
// queries, separated by lines containing only ";;". Each query gets fresh
// variables. The supported fragment is the paper's query language: BGPs with
// PREFIX declarations, SELECT lists or *, the 'a' shorthand, literals and
// blank nodes (which behave as existential variables).
func (db *Database) ParseSPARQLWorkload(text string) (*Workload, error) {
	p := cq.NewParser(db.st.Dict())
	var qs []*cq.Query
	for i, chunk := range strings.Split(text, ";;") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		p.ResetNames()
		q, err := p.ParseSPARQL(chunk)
		if err != nil {
			return nil, fmt.Errorf("rdfviews: SPARQL query %d: %w", i+1, err)
		}
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("rdfviews: empty workload")
	}
	return &Workload{Queries: qs}, nil
}

// Answer evaluates one workload query directly on the database (not using
// views), returning decoded rows. Reasoning is honored per the mode: under
// saturation and the reformulation modes the query is reformulated and the
// union evaluated on the explicit triples (Theorem 4.2); with ReasoningNone
// the explicit triples only. Compiled plans are cached by canonicalized
// query shape with liftable constants parameterized, so repeated shapes skip
// reformulation and planning; see CacheStats and InvalidatePlans.
func (db *Database) Answer(q *cq.Query, mode Reasoning) ([][]string, error) {
	li, v, err := db.lift(q, mode)
	if err != nil {
		return nil, err
	}
	s, err := db.open(context.Background(), li, &v)
	if err != nil {
		return nil, err
	}
	return s.collect()
}

// ExplainQuery renders the physical plan the engine compiles to answer q
// directly on the store (explicit triples only): the chosen index-scan
// permutations, join operators (merge joins with residual equalities, hash
// joins with their build side, explicit Sorts at sort breaks) and ordering,
// annotated with estimated cardinalities. The plan comes from the same cache
// Answer uses, so explaining a query leaves its plan warm. For the plans
// behind a recommendation, see Recommendation.ExplainPhysical.
func (db *Database) ExplainQuery(q *cq.Query) (string, error) {
	li, v, err := db.lift(q, ReasoningNone)
	if err != nil {
		return "", err
	}
	r, err := db.plan(li, &v)
	if err != nil {
		return "", err
	}
	return r.members[0].Instantiate(v.reader, r.repr).Explain(), nil
}
