// Package maintain implements incremental maintenance of materialized views
// under triple insertions and deletions — the operational counterpart of the
// paper's view maintenance cost VMC (Section 3.3), which charges f^len(v)
// per update for exactly the delta propagation performed here.
//
// Inserting a triple t+ into the store adds to each view v the tuples of the
// delta queries obtained by binding one atom of v to t+ (the f1·f2·…·f_len(v)
// joins the paper's model counts). Deleting t− is set-semantics DRed:
// candidate tuples derived through t− are re-checked against the updated
// store and removed only when no alternative derivation remains.
//
// The maintainer runs in one of two modes, selected by Config.QueueDepth:
//
//   - Synchronous (QueueDepth <= 0, the historical behavior and the oracle
//     of the differential tests): Insert/Delete apply the delta joins inline
//     before returning, so extents are exact after every call.
//   - Asynchronous (QueueDepth > 0): Insert/Delete update the base store,
//     append an encoded delta to a bounded change queue and return. A
//     background refresher drains the queue in batches, evaluates the delta
//     queries against the store snapshot aligned with each batch boundary,
//     and publishes updated extents atomically (copy-on-write RowIndex +
//     pointer swap), so concurrent readers never observe a half-applied
//     batch. Flush is the freshness barrier; Lag and the epoch accessors
//     report how far extents trail the store.
package maintain

import (
	"fmt"
	"sync/atomic"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/store"
)

// Maintainer keeps the extents of a view set synchronized with its store.
type Maintainer struct {
	st    *store.Store
	views map[algebra.ViewID]*cq.Query

	// cur is the published generation of every extent. The synchronous mode
	// mutates the current generation in place (single-caller semantics, as
	// ever); the asynchronous refresher replaces it wholesale, so readers
	// pinning one load observe a consistent set across views.
	cur atomic.Pointer[extentSet]

	// pubGen counts extent publications (synchronous mutations and
	// asynchronous batch publishes alike). The serving tier's plan cache
	// reads it as a cheap change signal: an unchanged generation means no
	// mutation reached the extents since an artifact was validated, so the
	// hit path can skip its cardinality-drift check entirely.
	pubGen atomic.Uint64

	rf *refresher // nil in synchronous mode
}

// extentSet is one generation of extents: the extent of every view plus the
// store epoch the generation corresponds to. Asynchronously published sets
// are immutable.
type extentSet struct {
	epoch   uint64
	extents map[algebra.ViewID]*engine.RowIndex
}

// New materializes every view and returns a synchronous maintainer over
// them — Insert/Delete propagate deltas inline. The store must be updated
// only through the maintainer from then on.
func New(st *store.Store, views map[algebra.ViewID]*cq.Query) (*Maintainer, error) {
	return NewWithConfig(st, views, Config{})
}

// NewWithConfig materializes every view and returns a maintainer in the mode
// the config selects (synchronous when QueueDepth <= 0, asynchronous
// otherwise). An asynchronous maintainer owns a background goroutine;
// release it with Close.
func NewWithConfig(st *store.Store, views map[algebra.ViewID]*cq.Query, cfg Config) (*Maintainer, error) {
	m := &Maintainer{
		st:    st,
		views: make(map[algebra.ViewID]*cq.Query, len(views)),
	}
	snap := st.Snapshot()
	exts := make(map[algebra.ViewID]*engine.RowIndex, len(views))
	for id, v := range views {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("maintain: view v%d: %w", int(id), err)
		}
		rel, err := engine.Materialize(snap, v)
		if err != nil {
			return nil, err
		}
		m.views[id] = v.Clone()
		exts[id] = engine.NewRowIndex(rel)
	}
	m.cur.Store(&extentSet{epoch: snap.Epoch(), extents: exts})
	if cfg.QueueDepth > 0 {
		m.rf = newRefresher(m, cfg, snap)
	}
	return m, nil
}

// Async reports whether the maintainer refreshes extents in the background.
func (m *Maintainer) Async() bool { return m.rf != nil }

// Extent returns the current materialization of a view. The caller must not
// modify it; in asynchronous mode it is an immutable published generation
// that may trail the store until the next Flush.
func (m *Maintainer) Extent(id algebra.ViewID) (*engine.Relation, bool) {
	x, ok := m.cur.Load().extents[id]
	if !ok {
		return nil, false
	}
	return x.Relation(), true
}

// Resolver adapts the maintainer to plan execution. The generation of
// extents is pinned when Resolver is called, so one plan execution sees a
// consistent set across every view it scans.
func (m *Maintainer) Resolver() engine.ViewResolver {
	es := m.cur.Load()
	return func(id algebra.ViewID) (*engine.Relation, error) {
		x, ok := es.extents[id]
		if !ok {
			return nil, fmt.Errorf("maintain: unknown view v%d", int(id))
		}
		return x.Relation(), nil
	}
}

// Insert adds the triple to the store and propagates the delta to every
// view. Synchronously it returns the number of view tuples added;
// asynchronously the delta is queued (blocking when the queue is full) and
// the count is reported as 0, since propagation has not happened yet. An
// asynchronous nil return means "applied to the store and queued", not
// "folded into extents": a later refresher failure freezes the extents at
// their last published generation and surfaces through Flush, Close and
// every subsequent update call.
func (m *Maintainer) Insert(t store.Triple) (int, error) {
	if m.rf != nil {
		return 0, m.rf.enqueue(opInsert, t)
	}
	if !m.st.Add(t) {
		return 0, nil // duplicate: no deltas under set semantics
	}
	defer m.pubGen.Add(1)
	added := 0
	es := m.cur.Load()
	for id, v := range m.views {
		ext := es.extents[id]
		rows, err := m.deltaRows(m.st, v, t)
		if err != nil {
			return added, err
		}
		for _, row := range rows {
			if ext.Add(row) {
				added++
			}
		}
	}
	return added, nil
}

// Delete removes the triple from the store and propagates the deletion:
// candidate tuples (those with a derivation through the deleted triple) are
// kept only if they can be re-derived from the remaining triples. The return
// count follows the same mode convention as Insert.
func (m *Maintainer) Delete(t store.Triple) (int, error) {
	if m.rf != nil {
		return 0, m.rf.enqueue(opDelete, t)
	}
	if !m.st.Contains(t) {
		return 0, nil
	}
	// Candidates are computed against the store still containing t.
	candidates := make(map[algebra.ViewID][]engine.Row, len(m.views))
	for id, v := range m.views {
		rows, err := m.deltaRows(m.st, v, t)
		if err != nil {
			return 0, err
		}
		candidates[id] = rows
	}
	m.st.Remove(t)
	defer m.pubGen.Add(1)
	removed := 0
	es := m.cur.Load()
	for id, rows := range candidates {
		v := m.views[id]
		ext := es.extents[id]
		for _, row := range rows {
			derivable, err := m.rederivable(m.st, v, row)
			if err != nil {
				return removed, err
			}
			if !derivable && ext.Remove(row) {
				removed++
			}
		}
	}
	return removed, nil
}

// Flush blocks until every delta enqueued before the call has been folded
// into published extents, then reports any refresher error. In synchronous
// mode extents are always exact and Flush returns immediately.
func (m *Maintainer) Flush() error {
	if m.rf == nil {
		return nil
	}
	return m.rf.flush()
}

// Lag returns the number of queued deltas not yet folded into published
// extents (0 in synchronous mode).
func (m *Maintainer) Lag() int {
	if m.rf == nil {
		return 0
	}
	return int(m.rf.pending.Load())
}

// AppliedEpoch returns the store epoch the published extents correspond to.
func (m *Maintainer) AppliedEpoch() uint64 {
	if m.rf == nil {
		return m.st.Epoch()
	}
	return m.cur.Load().epoch
}

// LatestEpoch returns the newest store epoch assigned to a maintained delta.
func (m *Maintainer) LatestEpoch() uint64 {
	if m.rf == nil {
		return m.st.Epoch()
	}
	return m.rf.latest.Load()
}

// EpochsBehind returns how many store epochs the published extents trail the
// newest maintained delta (0 in synchronous mode).
func (m *Maintainer) EpochsBehind() uint64 {
	if m.rf == nil {
		return 0
	}
	applied := m.cur.Load().epoch
	if latest := m.rf.latest.Load(); latest > applied {
		return latest - applied
	}
	return 0
}

// PublishGen returns the number of extent publications so far: synchronous
// mode bumps it on every state-changing Insert/Delete, asynchronous mode once
// per published refresh batch. An unchanged value between two reads means no
// mutation reached the published extents in between.
func (m *Maintainer) PublishGen() uint64 { return m.pubGen.Load() }

// Store returns the base store the maintainer maintains views over. Under
// ReasoningSaturate this is the saturated copy, so ad-hoc queries evaluated
// against it see entailed triples without reformulation.
func (m *Maintainer) Store() *store.Store { return m.st }

// Close flushes the change queue, stops the background refresher and reports
// any refresher error. Further Insert/Delete calls fail. Synchronous
// maintainers have nothing to release; Close is a no-op for them.
func (m *Maintainer) Close() error {
	if m.rf == nil {
		return nil
	}
	return m.rf.close()
}

// deltaRows evaluates the delta of view v for triple t against the reader:
// the union over atoms of v unifying with t of the view with that atom's
// variables bound. The reader is the live store in synchronous mode and a
// batch-aligned snapshot in asynchronous mode.
func (m *Maintainer) deltaRows(r store.Reader, v *cq.Query, t store.Triple) ([]engine.Row, error) {
	seen := engine.NewRowSet(8)
	var out []engine.Row
	for i := range v.Atoms {
		qb, ok := bindAtom(v, i, t)
		if !ok {
			continue
		}
		rel, err := engine.Materialize(r, qb)
		if err != nil {
			return nil, err
		}
		for _, row := range rel.Rows {
			if seen.Add(row) {
				out = append(out, row)
			}
		}
	}
	return out, nil
}

// bindAtom unifies atom i of v with the triple; on success it returns v with
// the atom's variables substituted by the triple's values (so the head may
// gain constants, which evaluation supports).
func bindAtom(v *cq.Query, i int, t store.Triple) (*cq.Query, bool) {
	bind := make(map[cq.Term]dict.ID, 3)
	a := v.Atoms[i]
	for p := 0; p < 3; p++ {
		term := a[p]
		if term.IsConst() {
			if term.ConstID() != t[p] {
				return nil, false
			}
			continue
		}
		if prev, ok := bind[term]; ok {
			if prev != t[p] {
				return nil, false
			}
			continue
		}
		bind[term] = t[p]
	}
	out := v
	for term, val := range bind {
		out = out.Substitute(term, cq.Const(val))
	}
	return out, true
}

// rederivable reports whether the view still derives the tuple from the
// reader's state: the view with its head bound to the tuple has an answer.
func (m *Maintainer) rederivable(r store.Reader, v *cq.Query, row engine.Row) (bool, error) {
	q := v
	for i, h := range v.Head {
		if h.IsVar() {
			q = q.Substitute(h, cq.Const(row[i]))
		} else if h.ConstID() != row[i] {
			return false, nil
		}
	}
	rel, err := engine.Materialize(r, q)
	if err != nil {
		return false, err
	}
	return rel.Len() > 0, nil
}

// NumRows returns the total tuples across all published extents.
func (m *Maintainer) NumRows() int {
	n := 0
	for _, x := range m.cur.Load().extents {
		n += x.Len()
	}
	return n
}
