package rdfviews

import (
	"context"
	"errors"
	"fmt"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/maintain"
	"rdfviews/internal/plancache"
	"rdfviews/internal/rdf"
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

// LiveViews is a materialized view set under incremental maintenance: triple
// insertions and deletions applied through it update both the database and
// every view extent, by delta propagation rather than recomputation — the
// operation whose cost the VMC component of the cost function models
// (Section 3.3). With MaintainOptions.QueueDepth > 0 the propagation runs in
// a background refresher behind a change queue; Flush, Lag and the
// StaleReadPolicy govern freshness.
type LiveViews struct {
	// front is the serving tier (serve.go): the plan cache behind
	// AnswerQuery/Prepare/AnswerQueryStream and the workload whose rewritings
	// answer exact matches.
	front
	rec   *Recommendation
	m     *maintain.Maintainer
	stale StaleReadPolicy
	// at is the maintained deployment as the plan cache sees it; each call
	// reads the publish generation into a copy (now).
	at version
}

// Maintain materializes the recommended views under synchronous incremental
// maintenance, in every reasoning mode. The maintained store is the
// database's own: updates reach Database.Answer and later Recommend calls.
// A view is maintained as its members (the union of its reformulation under
// post-reformulation, and so under saturation; the view itself otherwise),
// each a conjunctive query over the explicit triples, so an update to an
// explicit triple reaches every view it entails a row of (Theorem 4.2).
func (r *Recommendation) Maintain() (*LiveViews, error) {
	return r.MaintainWithOptions(MaintainOptions{})
}

// MaintainWithOptions is Maintain with explicit maintenance options; the
// zero value reproduces Maintain exactly. With QueueDepth > 0 the returned
// LiveViews owns a background refresher — release it with Close.
func (r *Recommendation) MaintainWithOptions(opts MaintainOptions) (*LiveViews, error) {
	views := make(map[algebra.ViewID]*cq.UCQ, r.state.NumViews())
	for id, v := range r.state.Views {
		u, err := r.members(v)
		if err != nil {
			return nil, err
		}
		views[id] = u
	}
	m, err := maintain.New(r.db.st, views, opts.QueueDepth)
	if err != nil {
		return nil, err
	}
	lv := &LiveViews{
		front: front{cache: plancache.New(plancache.DefaultCapacity, nil), workload: r.workload.Queries},
		rec:   r,
		m:     m,
		stale: opts.StaleReads,
		at:    version{tag: "lv:" + string(r.mode), stmt: "txt|", reader: r.db.st, maxTerms: r.maxUnionTerms, typeID: r.schema.TypeID},
	}
	if r.mode != ReasoningNone {
		lv.at.schema = r.schema
	}
	return lv, nil
}

// ErrSchemaUpdate is returned by LiveViews.Insert and Delete for a triple
// whose predicate is an RDFS schema property (rdfs:subClassOf,
// rdfs:subPropertyOf, rdfs:domain, rdfs:range). The views and their
// reformulations were chosen under the schema as it was: load the statement
// into the Database and Recommend again.
var ErrSchemaUpdate = errors.New("rdfviews: schema triples cannot be maintained; load them and recommend again")

// parseTriple parses one N-Triples-style data line.
func (lv *LiveViews) parseTriple(line string) (rdf.Triple, error) {
	t, ok, err := rdf.ParseLine(line)
	if err != nil {
		return rdf.Triple{}, err
	}
	if !ok {
		return rdf.Triple{}, fmt.Errorf("rdfviews: no triple in %q", line)
	}
	if rdf.IsSchemaProperty(t.P.Value) {
		return rdf.Triple{}, fmt.Errorf("%w: %q", ErrSchemaUpdate, line)
	}
	return t, nil
}

// Insert adds one triple (N-Triples-style line) to the database and
// propagates it to every view. Synchronously it returns the number of view
// tuples added; under asynchronous maintenance it returns once the delta is
// queued (blocking while the queue is full) and reports 0.
func (lv *LiveViews) Insert(line string) (int, error) {
	t, err := lv.parseTriple(line)
	if err != nil {
		return 0, err
	}
	return lv.m.Insert(lv.m.Store().Encode(t))
}

// Delete removes one triple and propagates the deletion. The return count
// follows the same mode convention as Insert.
func (lv *LiveViews) Delete(line string) (int, error) {
	t, err := lv.parseTriple(line)
	if err != nil {
		return 0, err
	}
	return lv.m.Delete(lv.m.Store().Encode(t))
}

// Answer executes the rewriting of workload query i over the maintained
// views, returning decoded rows. Under asynchronous maintenance the
// StaleReadPolicy decides between answering from the last published extent
// generation (ServeStale) and flushing first (WaitFresh); either way one
// query sees one consistent generation across every view it scans.
func (lv *LiveViews) Answer(i int) ([][]string, error) {
	rs, err := lv.rewriting(context.Background(), i)
	if err != nil {
		return nil, err
	}
	return newAnswerStream(rs, nil, lv.m.Store().Dict()).collect()
}

// Flush blocks until every update applied before the call is folded into
// the published view extents — the freshness barrier of asynchronous
// maintenance. Synchronous maintenance is always flushed.
func (lv *LiveViews) Flush() error { return lv.m.Flush() }

// Lag returns the number of queued deltas not yet folded into published
// extents and how many store epochs the extents trail the newest update
// (both 0 under synchronous maintenance).
func (lv *LiveViews) Lag() (deltas int, epochsBehind uint64) {
	return lv.m.Lag(), lv.m.EpochsBehind()
}

// Async reports whether maintenance runs asynchronously.
func (lv *LiveViews) Async() bool { return lv.m.Async() }

// Close flushes pending deltas and stops the background refresher; further
// updates fail. It is a no-op under synchronous maintenance.
func (lv *LiveViews) Close() error { return lv.m.Close() }

// NumRows returns the total maintained view tuples (published generations
// under asynchronous maintenance).
func (lv *LiveViews) NumRows() int { return lv.m.NumRows() }
