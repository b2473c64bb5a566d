// Package maintain implements incremental maintenance of materialized views
// under triple insertions and deletions — the operational counterpart of the
// paper's view maintenance cost VMC (Section 3.3), which charges f^len(v)
// per update for exactly the delta propagation performed here.
//
// A view is a union of conjunctive members over the explicit store: one
// member for a plain view, its reformulation under RDFS (Theorem 4.2 makes
// that union's answers on the explicit store the view's answers on the
// saturated one). Inserting a triple t+ into the store adds to each view the
// tuples of the delta queries obtained by binding one atom of one member to
// t+ (the f1·f2·…·f_len(v) joins the paper's model counts). Deleting t− is
// set-semantics DRed: candidate tuples derived through t− are re-checked
// against the updated store and removed only when no member re-derives them,
// so a row with several derivations needs no support count.
//
// One fold does all the propagation (apply): it nets a batch of store
// deltas into insertions and deletions, runs DRed over the store snapshots
// before and after the batch, and publishes the next extent generation. Each
// extent is a relation sorted on its columns (engine.Sorted), so membership
// is a binary search and nothing but the rows is kept; a changed extent is
// published as one linear merge of the old one with its sorted removals and
// additions (engine.Merged), and the old one is never written, so a reader
// draining it is never disturbed. The two modes, chosen by New's queue
// depth, differ only in when the fold runs:
//
//   - Synchronous (queue depth <= 0): Insert/Delete fold their own
//     one-delta batch before returning, so extents are exact after every
//     call; an update costs its delta queries plus a copy of each extent it
//     changes.
//   - Asynchronous (queue depth > 0): Insert/Delete update the base store,
//     append the delta to a bounded change queue and return. A background
//     refresher folds up to 256 queued deltas at a time, merging each
//     changed extent once per batch, and publishes the generation with one
//     pointer swap, so concurrent readers never observe a half-applied
//     batch. Flush is the freshness barrier; Lag and the epoch accessors
//     report how far extents trail the store.
package maintain

import (
	"fmt"
	"maps"
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
	views map[algebra.ViewID]*cq.UCQ

	// cur is the published generation of every extent. The fold replaces it
	// on every batch with a set whose changed extents are new relations, so
	// readers pinning one load observe a consistent, immutable set across
	// views.
	cur atomic.Pointer[extentSet]

	// pubGen counts extent publications: one per folded batch, which under
	// synchronous maintenance is one per state-changing Insert/Delete. The
	// serving tier's plan cache reads it as a cheap change signal: an
	// unchanged generation means no mutation reached the extents since an
	// artifact was validated, so the hit path can skip its
	// cardinality-drift check entirely.
	pubGen atomic.Uint64

	pending atomic.Int64  // deltas applied to the store, not yet folded
	latest  atomic.Uint64 // store epoch after the newest maintained delta

	rf *refresher // nil in synchronous mode
}

// extentSet is one generation of extents: the extent of every view, each in
// engine.Sorted order, plus the store epoch the generation corresponds to.
// Published sets are immutable.
type extentSet struct {
	epoch   uint64
	extents map[algebra.ViewID]*engine.Relation
}

// New materializes every view and returns a maintainer over them. With
// queueDepth <= 0 it is synchronous: Insert/Delete propagate deltas before
// returning. With queueDepth > 0 it is asynchronous behind a change queue of
// that capacity — writers block when the queue is full, so extents trail the
// store by at most queueDepth + 256 deltas — and owns a background goroutine;
// release it with Close. The store must be updated only through the
// maintainer from then on, and the views must not change.
func New(st *store.Store, views map[algebra.ViewID]*cq.UCQ, queueDepth int) (*Maintainer, error) {
	m := &Maintainer{st: st, views: views}
	snap := st.Snapshot()
	exts := make(map[algebra.ViewID]*engine.Relation, len(views))
	for id, v := range views {
		rel, err := engine.MaterializeUCQ(snap, v)
		if err != nil {
			return nil, fmt.Errorf("maintain: view v%d: %w", int(id), err)
		}
		exts[id] = engine.Sorted(rel)
	}
	m.cur.Store(&extentSet{epoch: snap.Epoch(), extents: exts})
	m.latest.Store(snap.Epoch())
	if queueDepth > 0 {
		m.rf = newRefresher(m, queueDepth, snap)
	}
	return m, nil
}

// Async reports whether the maintainer refreshes extents in the background
// (false for a nil Maintainer).
func (m *Maintainer) Async() bool { return m != nil && m.rf != nil }

// Extent returns the current materialization of a view, its rows sorted on
// its columns. The caller must not modify it; it is an immutable published
// generation, which in asynchronous mode may trail the store until the next
// Flush.
func (m *Maintainer) Extent(id algebra.ViewID) (*engine.Relation, bool) {
	x, ok := m.cur.Load().extents[id]
	return x, ok
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
		return x, nil
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
func (m *Maintainer) Insert(t store.Triple) (int, error) { return m.update(opInsert, t) }

// Delete removes the triple from the store and propagates the deletion:
// candidate tuples (those with a derivation through the deleted triple) are
// kept only if they can be re-derived from the remaining triples. The return
// count follows the same mode convention as Insert.
func (m *Maintainer) Delete(t store.Triple) (int, error) { return m.update(opDelete, t) }

// update applies one mutation. Asynchronously the refresher queues it;
// synchronously it is folded at once, as a one-delta batch between the store
// snapshots before and after it.
func (m *Maintainer) update(op opKind, t store.Triple) (int, error) {
	if m.rf != nil {
		return 0, m.rf.enqueue(op, t)
	}
	before := m.st.Snapshot()
	d, ok := m.mutate(op, t)
	if !ok {
		return 0, nil
	}
	return m.apply(before, []delta{d})
}

// opKind is the delta operation.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
)

// delta is one applied store mutation plus the store snapshot captured right
// after it. In the change queue it may instead be a flush barrier
// (flush != nil, other fields unused).
type delta struct {
	op    opKind
	t     store.Triple
	snap  *store.Snapshot
	flush chan struct{}
}

// mutate applies the mutation to the base store and returns its delta,
// carrying the store snapshot right after it. A mutation that changes
// nothing (duplicate insert, absent delete) has no delta under set
// semantics: ok is false.
func (m *Maintainer) mutate(op opKind, t store.Triple) (d delta, ok bool) {
	if op == opInsert {
		ok = m.st.Add(t)
	} else {
		ok = m.st.Remove(t)
	}
	if !ok {
		return delta{}, false
	}
	d = delta{op: op, t: t, snap: m.st.Snapshot()}
	m.latest.Store(d.snap.Epoch())
	return d, true
}

// Flush blocks until every delta enqueued before the call has been folded
// into published extents, then reports any refresher error. In synchronous
// mode extents are always exact and Flush returns immediately, as it does
// on a nil Maintainer, which maintains nothing.
func (m *Maintainer) Flush() error {
	if m == nil || m.rf == nil {
		return nil
	}
	return m.rf.flush()
}

// Lag returns the number of queued deltas not yet folded into published
// extents (0 in synchronous mode).
func (m *Maintainer) Lag() int { return int(m.pending.Load()) }

// AppliedEpoch returns the store epoch the published extents correspond to.
func (m *Maintainer) AppliedEpoch() uint64 { return m.cur.Load().epoch }

// LatestEpoch returns the newest store epoch assigned to a maintained delta.
func (m *Maintainer) LatestEpoch() uint64 { return m.latest.Load() }

// EpochsBehind returns how many store epochs the published extents trail the
// newest maintained delta (0 in synchronous mode).
func (m *Maintainer) EpochsBehind() uint64 {
	applied := m.AppliedEpoch()
	if latest := m.LatestEpoch(); latest > applied {
		return latest - applied
	}
	return 0
}

// PublishGen returns the number of extent publications so far: synchronous
// mode bumps it on every state-changing Insert/Delete, asynchronous mode once
// per published refresh batch. An unchanged value between two reads means no
// mutation reached the published extents in between.
func (m *Maintainer) PublishGen() uint64 { return m.pubGen.Load() }

// Store returns the base store the maintainer maintains views over: the
// explicit triples, whatever the views' reasoning.
func (m *Maintainer) Store() *store.Store { return m.st }

// Close flushes the change queue, stops the background refresher and reports
// any refresher error. Further Insert/Delete calls fail. Synchronous
// maintainers, and a nil one, have nothing to release; Close is a no-op for
// them.
func (m *Maintainer) Close() error {
	if m == nil || m.rf == nil {
		return nil
	}
	return m.rf.close()
}

// apply is the one fold: it folds a batch of deltas into the extents,
// publishes the next generation and returns how many view tuples it added or
// removed. snapOld is the store state before the batch's first delta; the
// batch's last snapshot is the state after its last one. The deltas are
// netted into insertion and deletion sets, then per view:
//
//   - deletions first (set-semantics DRed): candidate tuples are the delta
//     rows of each net-deleted triple evaluated over snapOld — the state that
//     still contains every net-deleted triple — and a candidate is dropped
//     only when the view no longer derives it over snapNew;
//   - then insertions: the delta rows of each net-inserted triple evaluated
//     over snapNew.
//
// This is classical batch maintenance: the result equals replaying the
// deltas one at a time, at the cost of two aligned snapshots per batch
// instead of one evaluation state per delta.
func (m *Maintainer) apply(snapOld *store.Snapshot, batch []delta) (int, error) {
	snapNew := batch[len(batch)-1].snap

	// Net insertion/deletion sets. The store admits only state-changing
	// mutations, so a triple's deltas alternate insert/delete within the
	// batch and fold to at most one net operation.
	netIns := make(map[store.Triple]struct{})
	netDel := make(map[store.Triple]struct{})
	for _, d := range batch {
		if d.op == opInsert {
			if _, ok := netDel[d.t]; ok {
				delete(netDel, d.t)
			} else {
				netIns[d.t] = struct{}{}
			}
		} else {
			if _, ok := netIns[d.t]; ok {
				delete(netIns, d.t)
			} else {
				netDel[d.t] = struct{}{}
			}
		}
	}

	old := m.cur.Load()
	// Unchanged views share the old generation's extents.
	next := &extentSet{epoch: snapNew.Epoch(), extents: maps.Clone(old.extents)}
	changed := 0
	for id, v := range m.views {
		x := old.extents[id]
		cols := x.Cols
		var row engine.Row

		// Deletion phase (DRed). A row deriving through several net-deleted
		// triples surfaces once per triple, so dedup before the
		// rederivability check.
		seen := engine.NewRowIndex(engine.NewRelation(cols))
		removals := engine.NewRelation(cols)
		for t := range netDel {
			rows, err := m.deltaRows(snapOld, v, t)
			if err != nil {
				return changed, err
			}
			for i := 0; i < rows.Len(); i++ {
				if row = rows.Row(i, row); !x.Contains(row) || !seen.Add(row) {
					continue
				}
				ok, err := m.rederivable(snapNew, v, row)
				if err != nil {
					return changed, err
				}
				if !ok {
					removals.Append(row)
				}
			}
		}

		// Insertion phase. (Disjoint from removals: delta rows are derivable
		// over snapNew by construction, removals are not.)
		additions := engine.NewRelation(cols)
		for t := range netIns {
			rows, err := m.deltaRows(snapNew, v, t)
			if err != nil {
				return changed, err
			}
			for i := 0; i < rows.Len(); i++ {
				if row = rows.Row(i, row); !x.Contains(row) {
					additions.Append(row) // repeats across delta triples go in Sorted
				}
			}
		}

		if removals.Len() == 0 && additions.Len() == 0 {
			continue
		}
		del, add := engine.Sorted(removals), engine.Sorted(additions)
		next.extents[id] = engine.Merged(x, del, add)
		changed += del.Len() + add.Len()
	}
	m.cur.Store(next)
	m.pubGen.Add(1)
	return changed, nil
}

// deltaRows evaluates the delta of view v for triple t against the reader:
// the distinct union over members of v and their atoms unifying with t of
// the member with that atom's variables bound. The reader is a store
// snapshot aligned with a batch boundary.
func (m *Maintainer) deltaRows(r store.Reader, v *cq.UCQ, t store.Triple) (*engine.Relation, error) {
	out := engine.NewRowIndex(engine.NewRelation(v.Queries[0].Head))
	var row engine.Row
	for _, q := range v.Queries {
		for i := range q.Atoms {
			qb, ok := bindAtom(q, i, t)
			if !ok {
				continue
			}
			rel, err := engine.Materialize(r, qb)
			if err != nil {
				return nil, err
			}
			for i := 0; i < rel.Len(); i++ {
				row = rel.Row(i, row)
				out.Add(row)
			}
		}
	}
	return out.Relation(), nil
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
// reader's state: some member with its head bound to the tuple has an
// answer. Evaluation stops at the first answer.
func (m *Maintainer) rederivable(r store.Reader, v *cq.UCQ, row engine.Row) (bool, error) {
members:
	for _, q := range v.Queries {
		for i, h := range q.Head {
			if h.IsVar() {
				q = q.Substitute(h, cq.Const(row[i]))
			} else if h.ConstID() != row[i] {
				continue members
			}
		}
		p, err := engine.PlanQuery(r, q)
		if err != nil {
			return false, err
		}
		rs := p.EvalStream(engine.ExecOptions{})
		rows, err := rs.Next() // one slab settles it
		rs.Close()
		if err != nil {
			return false, err
		}
		if rows != nil {
			return true, nil
		}
	}
	return false, nil
}

// NumRows returns the total tuples across all published extents.
func (m *Maintainer) NumRows() int {
	n := 0
	for _, x := range m.cur.Load().extents {
		n += x.Len()
	}
	return n
}
