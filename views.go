package rdfviews

import (
	"context"
	"errors"
	"fmt"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/maintain"
	"rdfviews/internal/plancache"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// StaleReadPolicy selects what query execution over view extents does when
// asynchronous maintenance has pending deltas.
type StaleReadPolicy int

const (
	// ServeStale answers from the last published extent generation — reads
	// never wait, but may trail the store by up to Lag() deltas.
	ServeStale StaleReadPolicy = iota
	// WaitFresh flushes the change queue before answering, so every answer
	// reflects all updates applied before the query.
	WaitFresh
)

// String returns "serve-stale" or "wait-fresh".
func (p StaleReadPolicy) String() string {
	if p == WaitFresh {
		return "wait-fresh"
	}
	return "serve-stale"
}

// MaintainOptions configures how the live view set is maintained. The zero
// value maintains synchronously; AnswerQuery, Prepare and AnswerQueryStream
// always go through a plan cache of plancache.DefaultCapacity entries.
type MaintainOptions struct {
	// QueueDepth > 0 maintains views asynchronously behind a bounded change
	// queue of that capacity: updates return once the base store is updated
	// and the delta is queued, and a background refresher folds batches of
	// up to 256 deltas into the extents. 0 (the default) keeps maintenance
	// synchronous — every update is folded before it returns, so extents are
	// exact after every call. Both modes run the same fold.
	QueueDepth int
	// StaleReads is consulted by Answer when maintenance is asynchronous.
	StaleReads StaleReadPolicy
}

// Views is a deployed view set: the recommended views' extents, one
// rewriting per workload query over them, the workload queries and the
// dictionary that decodes answers — what the paper's deployment answers the
// workload from (Section 1). Workload query i is answered from the views
// alone (Answer); ad-hoc text (AnswerQuery, Prepare, AnswerQueryStream) takes
// the rewriting of the workload query it matches, and otherwise the store.
//
// A Views comes in three states, each with the same methods:
//   - Recommendation.Materialize: the extents as they are when it is called,
//     over the database's store;
//   - Recommendation.Maintain: the same, with the extents kept equal to the
//     store under Insert and Delete by incremental maintenance — the
//     operation whose cost the VMC component of the cost function models
//     (Section 3.3). With MaintainOptions.QueueDepth > 0 the propagation runs
//     in a background refresher behind a change queue; Flush, Lag and the
//     StaleReadPolicy govern freshness;
//   - LoadBundle: the shipped extents of a client bundle, with no store. An
//     ad-hoc query that matches no workload query fails with ErrNoStore.
//
// Insert and Delete of an unmaintained Views fail with ErrNotMaintained;
// Flush, Lag, Async, Close and PublishGen report nil or zero.
type Views struct {
	// front is the serving tier (serve.go): the plan cache behind
	// AnswerQuery/Prepare/AnswerQueryStream and the workload whose rewritings
	// answer exact matches.
	front
	plans []algebra.Plan               // one rewriting per workload query
	defs  map[algebra.ViewID]*cq.Query // the view definitions
	texts []string                     // each workload query, rendered
	dict  *dict.Dictionary             // decodes answers
	// extents is where the extents come from: it pins the generation one
	// answer reads, the maintainer's published one or the fixed extents.
	extents func() engine.ViewResolver
	// m maintains the extents; nil when they are fixed.
	m     *maintain.Maintainer
	stale StaleReadPolicy
	// at is the deployment as the plan cache sees it; each call pins a
	// store snapshot and reads the generation into a copy (now).
	at version
}

// LiveViews is the name Views had when only a maintained view set had one.
//
// Deprecated: use Views.
type LiveViews = Views

// ErrNoStore is returned for an ad-hoc query that matches no workload query
// by a Views loaded from a bundle: only the shipped views can answer, and
// the bundle carries no store to fall back to.
var ErrNoStore = errors.New("rdfviews: no store behind these views; only workload queries can be answered")

// ErrNotMaintained is returned by Insert and Delete of a Views that no
// maintainer keeps up to date: one from Materialize or LoadBundle.
var ErrNotMaintained = errors.New("rdfviews: views are not maintained; use Recommendation.Maintain")

// ErrSchemaUpdate is returned by Views.Insert and Delete for a triple
// whose predicate is an RDFS schema property (rdfs:subClassOf,
// rdfs:subPropertyOf, rdfs:domain, rdfs:range). The views and their
// reformulations were chosen under the schema as it was: load the statement
// into the Database and Recommend again.
var ErrSchemaUpdate = errors.New("rdfviews: schema triples cannot be maintained; load them and recommend again")

// Materialize computes the extent of every recommended view — the distinct
// union of its members' answers on the database's store, each member one
// plan whose reformulated atoms are union leaves — and returns them
// unmaintained: later updates to the database do not reach them. It builds
// the extents Maintain starts from, in the same order.
func (r *Recommendation) Materialize() (*Views, error) { return r.deploy(nil) }

// Maintain materializes the recommended views under synchronous incremental
// maintenance, in every reasoning mode. The maintained store is the
// database's own: updates reach Database.Answer and later Recommend calls.
// A view is maintained as its members (its reformulation factored per atom
// under post-reformulation, and so under saturation; the view itself
// otherwise), each a conjunctive query over the explicit triples whose atoms
// stand for their rule 1–4 alternatives, so an update to an explicit triple
// reaches every view it entails a row of (Theorem 4.2): its delta is each
// member with one alternative of one atom bound to the triple.
func (r *Recommendation) Maintain() (*Views, error) { return r.deploy(&MaintainOptions{}) }

// MaintainWithOptions is Maintain with explicit maintenance options; the
// zero value reproduces Maintain exactly. With QueueDepth > 0 the returned
// Views owns a background refresher — release it with Close.
func (r *Recommendation) MaintainWithOptions(opts MaintainOptions) (*Views, error) {
	return r.deploy(&opts)
}

// deploy puts the recommended views over the database's store, each as its
// members. The maintainer materializes every view over one snapshot of the
// store, each extent sorted on its columns (engine.Sorted); under opts it
// keeps them up to date, and with opts nil its first generation is the
// deployment's fixed extents.
func (r *Recommendation) deploy(opts *MaintainOptions) (*Views, error) {
	members := make(map[algebra.ViewID]*cq.UCQ, r.state.NumViews())
	for id, v := range r.state.Views {
		u, err := r.members(v)
		if err != nil {
			return nil, err
		}
		members[id] = u
	}
	d := r.db.st.Dict()
	v := &Views{
		front: front{cache: plancache.New(plancache.DefaultCapacity, nil), workload: r.workload.Queries, st: r.db.st},
		plans: r.state.Plans,
		defs:  r.state.ViewQueries(),
		texts: make([]string, len(r.workload.Queries)),
		dict:  d,
		at:    version{tag: "lv:" + string(r.mode), stmt: "txt|", maxTerms: r.maxUnionTerms, typeID: r.schema.TypeID},
	}
	for i, q := range r.workload.Queries {
		v.texts[i] = q.Format(d)
	}
	if r.mode != ReasoningNone {
		v.at.schema = r.schema
	}
	depth := 0
	if opts != nil {
		depth = opts.QueueDepth
	}
	m, err := maintain.New(r.db.st, members, depth)
	if err != nil {
		return nil, err
	}
	if opts == nil {
		// Unmaintained: the maintainer's first generation, which nothing
		// updates from then on.
		v.extents = fixed(m.Resolver())
		return v, nil
	}
	v.m, v.extents, v.stale = m, m.Resolver, opts.StaleReads
	return v, nil
}

// fixed is the source of extents that never change.
func fixed(resolve engine.ViewResolver) func() engine.ViewResolver {
	return func() engine.ViewResolver { return resolve }
}

// Insert adds one triple (N-Triples-style line) to the database and
// propagates it to every view. Synchronously it returns the number of view
// tuples added; under asynchronous maintenance it returns once the delta is
// queued (blocking while the queue is full) and reports 0.
func (v *Views) Insert(line string) (int, error) {
	return v.update(line, (*maintain.Maintainer).Insert)
}

// Delete removes one triple and propagates the deletion. The return count
// follows the same mode convention as Insert.
func (v *Views) Delete(line string) (int, error) {
	return v.update(line, (*maintain.Maintainer).Delete)
}

// update parses one N-Triples-style data line and applies it through the
// maintainer.
func (v *Views) update(line string, op func(*maintain.Maintainer, store.Triple) (int, error)) (int, error) {
	if v.m == nil {
		return 0, ErrNotMaintained
	}
	t, ok, err := rdf.ParseLine(line)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("rdfviews: no triple in %q", line)
	}
	if rdf.IsSchemaProperty(t.P.Value) {
		return 0, fmt.Errorf("%w: %q", ErrSchemaUpdate, line)
	}
	return op(v.m, v.st.Encode(t))
}

// Answer executes the rewriting of workload query i over the views only,
// returning decoded rows. Under asynchronous maintenance the StaleReadPolicy
// decides between answering from the last published extent generation
// (ServeStale) and flushing first (WaitFresh); either way one query sees one
// consistent generation across every view it scans.
func (v *Views) Answer(i int) ([][]string, error) {
	rs, err := v.rewriting(context.Background(), i)
	if err != nil {
		return nil, err
	}
	return newAnswerStream(rs, nil, v.dict).collect()
}

// AnswerRelation is Answer without decoding.
func (v *Views) AnswerRelation(i int) (*engine.Relation, error) {
	rs, err := v.rewriting(context.Background(), i)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

// NumQueries returns the number of workload queries the views answer.
func (v *Views) NumQueries() int { return len(v.plans) }

// QueryText renders workload query i (for display), "" out of range.
func (v *Views) QueryText(i int) string {
	if i < 0 || i >= len(v.texts) {
		return ""
	}
	return v.texts[i]
}

// NumRows returns the total view tuples (the published generation under
// asynchronous maintenance).
func (v *Views) NumRows() int { return v.sum((*engine.Relation).Len) }

// SizeBytes returns the bytes the extents' 32-bit column slabs hold.
func (v *Views) SizeBytes() int { return v.sum((*engine.Relation).SizeBytes) }

// sum adds f over every view's extent, all of one generation.
func (v *Views) sum(f func(*engine.Relation) int) int {
	resolve := v.extents()
	n := 0
	for id := range v.defs {
		rel, _ := resolve(id) // every defined view has an extent
		n += f(rel)
	}
	return n
}

// Flush blocks until every update applied before the call is folded into
// the published view extents — the freshness barrier of asynchronous
// maintenance. Synchronous maintenance, and no maintenance, are always
// flushed.
func (v *Views) Flush() error { return v.m.Flush() }

// Lag returns the number of queued deltas not yet folded into published
// extents and how many store epochs the extents trail the newest update
// (both 0 under synchronous maintenance or none).
func (v *Views) Lag() (deltas int, epochsBehind uint64) {
	if v.m == nil {
		return 0, 0
	}
	return v.m.Lag(), v.m.EpochsBehind()
}

// Async reports whether maintenance runs asynchronously.
func (v *Views) Async() bool { return v.m.Async() }

// Close flushes pending deltas and stops the background refresher; further
// updates fail. It is a no-op unless maintenance is asynchronous.
func (v *Views) Close() error { return v.m.Close() }

// PublishGen returns the maintainer's monotone publish generation — it
// advances exactly when a new extent generation is published, and is 0
// without a maintainer. Serving-tier monitors (and the HTTP stress tests)
// use it to observe maintenance progress without touching extents.
func (v *Views) PublishGen() uint64 {
	if v.m == nil {
		return 0
	}
	return v.m.PublishGen()
}
