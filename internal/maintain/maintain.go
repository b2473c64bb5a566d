// Package maintain implements incremental maintenance of materialized views
// under triple insertions and deletions — the operational counterpart of the
// paper's view maintenance cost VMC (Section 3.3), which charges f^len(v)
// per update for exactly the delta propagation performed here.
//
// A view is a union of conjunctive members over the explicit store: one
// member for a plain view, its reformulation under RDFS factored per atom
// (cq.UCQ.Alts: one member per binding of a class or property variable, each
// atom a union of its alternatives) for a reformulated one. Theorem 4.2
// makes that union's answers on the explicit store the view's answers on the
// saturated one. Every member runs as one plan whose reformulated atoms are
// union leaves. Inserting a triple t+ into the store adds to each view the
// tuples of the delta queries obtained by binding one alternative of one
// atom of one member to t+ (the f1·f2·…·f_len(v) joins the paper's model
// counts); an atom none of whose alternatives unifies with t+ costs nothing.
// Deleting t− is set-semantics DRed: candidate tuples derived through t− are
// re-checked against the updated store and removed only when no member
// re-derives them, so a row with several derivations needs no support count.
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
	"slices"
	"sync/atomic"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
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

// New materializes every view over one snapshot of the store, each extent
// in engine.Sorted order, and returns a maintainer over them. With
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
	// Unchanged views share the old generation's extents, and the map itself
	// is shared until a view changes: a view no delta touches allocates
	// nothing.
	exts := old.extents
	changed := 0
	for id, v := range m.views {
		x := old.extents[id]
		// Made on the view's first delta row.
		var seen *engine.RowIndex
		var removals, additions *engine.Relation
		touched := func() {
			if seen == nil {
				seen = engine.NewRowIndex(engine.NewRelation(x.Cols))
				removals, additions = engine.NewRelation(x.Cols), engine.NewRelation(x.Cols)
			}
		}

		// Deletion phase (DRed). A row deriving through several net-deleted
		// triples, members or atoms surfaces once per derivation, so dedup
		// before the rederivability check.
		for t := range netDel {
			if err := deltaRows(snapOld, v, t, func(row engine.Row) error {
				if touched(); !x.Contains(row) || !seen.Add(row) {
					return nil
				}
				ok, err := m.rederivable(snapNew, v, row)
				if !ok && err == nil {
					removals.Append(row)
				}
				return err
			}); err != nil {
				return changed, err
			}
		}

		// Insertion phase. (Disjoint from removals: delta rows are derivable
		// over snapNew by construction, removals are not.)
		for t := range netIns {
			if err := deltaRows(snapNew, v, t, func(row engine.Row) error {
				if touched(); !x.Contains(row) {
					additions.Append(row) // repeats go in Sorted
				}
				return nil
			}); err != nil {
				return changed, err
			}
		}

		if seen == nil || removals.Len() == 0 && additions.Len() == 0 {
			continue
		}
		if changed == 0 { // the first view to change
			exts = maps.Clone(old.extents)
		}
		del, add := engine.Sorted(removals), engine.Sorted(additions)
		exts[id] = engine.Merged(x, del, add)
		changed += del.Len() + add.Len()
	}
	m.cur.Store(&extentSet{epoch: snapNew.Epoch(), extents: exts})
	m.pubGen.Add(1)
	return changed, nil
}

// deltaRows calls emit with each row of view v's delta for triple t over the
// reader, a row once per derivation. Triple t touches atom i of member m
// when one of the atom's alternatives unifies with it; each such alternative
// contributes m with the alternative's variables bound to t's values, atom i
// fixed to t and the other atoms union leaves of their bound alternatives.
// The reader is a store snapshot aligned with a batch boundary.
func deltaRows(r store.Reader, v *cq.UCQ, t store.Triple, emit func(engine.Row) error) error {
	var row engine.Row
	for mi, q := range v.Queries {
		alts := v.AltsOf(mi)
		for i := range q.Atoms {
			as := q.Atoms[i : i+1]
			if alts != nil && len(alts[i]) > 0 {
				as = alts[i]
			}
			for _, a := range as {
				if !unifies(a, t) {
					continue
				}
				qb, ab := bound(q, alts, func(x cq.Term) cq.Term {
					if p := slices.Index(a[:], x); x.IsVar() && p >= 0 {
						return cq.Const(t[p])
					}
					return x
				})
				qb.Atoms[i] = cq.Atom{cq.Const(t[0]), cq.Const(t[1]), cq.Const(t[2])}
				if ab != nil {
					ab[i] = nil
				}
				p, err := engine.PlanQueryAlts(r, qb, ab, nil)
				if err != nil {
					return err
				}
				rel, err := p.EvalStream(engine.ExecOptions{}).Collect()
				for k := 0; err == nil && k < rel.Len(); k++ {
					row = rel.Row(k, row)
					err = emit(row)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// unifies reports whether atom a matches triple t. Its constants are checked
// first, so a mismatch costs no binding; then a variable repeated in a must
// meet one value.
func unifies(a cq.Atom, t store.Triple) bool {
	for p := 0; p < 3; p++ {
		if a[p].IsConst() && a[p].ConstID() != t[p] {
			return false
		}
	}
	return (a[0] != a[1] || t[0] == t[1]) && (a[0] != a[2] || t[0] == t[2]) && (a[1] != a[2] || t[1] == t[2])
}

// bound returns member q and its alternatives (nil: none) with every term
// passed through to, which turns the variables it binds into constants. The
// head may gain constants, which evaluation supports.
func bound(q *cq.Query, alts [][]cq.Atom, to func(cq.Term) cq.Term) (*cq.Query, [][]cq.Atom) {
	toAtom := func(a cq.Atom) cq.Atom { return cq.Atom{to(a[0]), to(a[1]), to(a[2])} }
	out := q.Clone()
	for i, h := range out.Head {
		out.Head[i] = to(h)
	}
	for i, a := range out.Atoms {
		out.Atoms[i] = toAtom(a)
	}
	if alts == nil {
		return out, nil
	}
	outAlts := make([][]cq.Atom, len(alts))
	for i, as := range alts {
		for _, a := range as {
			outAlts[i] = append(outAlts[i], toAtom(a))
		}
	}
	return out, outAlts
}

// rederivable reports whether the view still derives the tuple from the
// reader's state: some member with its head bound to the tuple, its atoms
// union leaves of their bound alternatives, has an answer. Evaluation stops
// at the first slab.
func (m *Maintainer) rederivable(r store.Reader, v *cq.UCQ, row engine.Row) (bool, error) {
members:
	for mi, q := range v.Queries {
		for i, h := range q.Head {
			if h.IsConst() && h.ConstID() != row[i] {
				continue members
			}
		}
		qb, ab := bound(q, v.AltsOf(mi), func(x cq.Term) cq.Term {
			if i := slices.Index(q.Head, x); x.IsVar() && i >= 0 {
				return cq.Const(row[i])
			}
			return x
		})
		p, err := engine.PlanQueryAlts(r, qb, ab, nil)
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
