// Package engine implements query evaluation: conjunctive queries and unions
// thereof over the indexed triple store (the stand-in for the paper's
// PostgreSQL triple table), materialization of views, and execution of the
// select-project-join-union rewriting plans produced by the search. All
// evaluation uses set semantics, matching the distinct answers of conjunctive
// query theory that the paper's definitions are built on.
package engine

import (
	"fmt"
	"sort"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// Row is one result tuple of dictionary-encoded values.
type Row []dict.ID

// Relation is a materialized set of rows with labeled columns. Column labels
// are cq terms: the head terms of the view the relation materializes, or the
// relabeled columns of a plan node.
type Relation struct {
	Cols []cq.Term
	Rows []Row
}

// NewRelation returns an empty relation with the given column labels.
func NewRelation(cols []cq.Term) *Relation {
	return &Relation{Cols: append([]cq.Term(nil), cols...)}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Cols) }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// ColIndex returns the index of the first column with the given label, or -1.
func (r *Relation) ColIndex(label cq.Term) int {
	for i, c := range r.Cols {
		if c == label {
			return i
		}
	}
	return -1
}

// rowSet is a set of rows for set-semantics deduplication: one open-addressing
// table of (64-bit row hash, row index) slots, probed linearly. A candidate is
// probed once — find returns either the slot holding its equal or the empty
// slot it belongs in, and insert fills that slot — so a kept row costs one
// walk of the table, not a lookup and then a store. Equal hashes are told
// apart by comparing rows and probing on. Membership tests allocate nothing;
// insertion costs one slot plus one amortized append.
type rowSet struct {
	slots []rowSlot // power-of-two length, load factor at most 3/4
	mask  uint64
	rows  []Row // stored rows, insertion order
	rowArena
}

// rowSlot is one table entry; ref == 0 marks it empty.
type rowSlot struct {
	hash uint64
	ref  int32 // index into rows, plus one
}

func newRowSet(sizeHint int) *rowSet {
	size := tableSlots(sizeHint)
	return &rowSet{slots: make([]rowSlot, size), mask: uint64(size - 1)}
}

// rowArena chunk-allocates row copies for bulk output materialization: one
// allocation per ~4k values instead of one per row.
type rowArena struct {
	chunk []dict.ID
}

func (a *rowArena) copyRow(row Row) Row {
	out := a.alloc(len(row))
	copy(out, row)
	return out
}

// alloc returns an uninitialized arena row of n values; the caller fills it.
// Used by operators that assemble output rows from two inputs (joins), where
// a copyRow of a scratch buffer would cost an extra pass.
func (a *rowArena) alloc(n int) Row {
	if len(a.chunk)+n > cap(a.chunk) {
		// Chunks grow geometrically from small: point lookups with a handful
		// of output rows pay for a cacheline or two, bulk materialization
		// converges on 4k-value chunks within a few doublings.
		size := cap(a.chunk) * 2
		if size < 64 {
			size = 64
		}
		if size > 4096 {
			size = 4096
		}
		if n > size {
			size = n
		}
		a.chunk = make([]dict.ID, 0, size)
	}
	off := len(a.chunk)
	a.chunk = a.chunk[:off+n]
	return a.chunk[off : off+n : off+n]
}

// hashSeed and hashMix define the one hash used by every dedup set and join
// table in the engine: FNV-style word mixing with an extra avalanche shift,
// order-sensitive, collisions resolved by value comparison at the call sites.
const hashSeed uint64 = 14695981039346656037

func hashMix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	h ^= h >> 29
	return h
}

// hashRow hashes all values of a row.
func hashRow(row Row) uint64 {
	h := hashSeed
	for _, v := range row {
		h = hashMix(h, uint64(v))
	}
	return h
}

// hashValues hashes the row values at the given indexes, in order.
func hashValues(row Row, idx []int) uint64 {
	h := hashSeed
	for _, i := range idx {
		h = hashMix(h, uint64(row[i]))
	}
	return h
}

func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *rowSet) len() int { return len(s.rows) }

// find probes for row under hash h. When the row is present it returns its
// slot and true; otherwise the empty slot insert(slot, h, row) must fill.
func (s *rowSet) find(h uint64, row Row) (slot uint64, found bool) {
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		e := s.slots[i]
		if e.ref == 0 {
			return i, false
		}
		if e.hash == h && rowsEqual(s.rows[e.ref-1], row) {
			return i, true
		}
	}
}

// insert stores row in the empty slot find just returned for (h, row). The
// set keeps a reference to the row.
func (s *rowSet) insert(slot, h uint64, row Row) {
	s.rows = append(s.rows, row)
	s.slots[slot] = rowSlot{hash: h, ref: int32(len(s.rows))}
	if len(s.rows)*4 > len(s.slots)*3 {
		s.grow()
	}
}

// grow doubles the table. Stored rows are distinct, so re-placing a slot
// needs its hash and the next empty slot, never a row comparison.
func (s *rowSet) grow() {
	old := s.slots
	s.slots = make([]rowSlot, 2*len(old))
	s.mask = uint64(len(s.slots) - 1)
	for _, e := range old {
		if e.ref == 0 {
			continue
		}
		i := e.hash & s.mask
		for s.slots[i].ref != 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = e
	}
}

func (s *rowSet) has(row Row) bool {
	_, found := s.find(hashRow(row), row)
	return found
}

// add inserts the row unless present, reporting whether it was new. The set
// keeps a reference: the caller must not mutate the row afterwards.
func (s *rowSet) add(row Row) bool {
	h := hashRow(row)
	slot, found := s.find(h, row)
	if !found {
		s.insert(slot, h, row)
	}
	return !found
}

// addCopy is add for a reused scratch row: on insertion it stores (and
// returns) a private copy, so the caller may keep overwriting the scratch.
func (s *rowSet) addCopy(row Row) (Row, bool) {
	h := hashRow(row)
	slot, found := s.find(h, row)
	if found {
		return s.rows[s.slots[slot].ref-1], false
	}
	cp := s.copyRow(row)
	s.insert(slot, h, cp)
	return cp, true
}

// Dedup returns a relation with duplicate rows removed (first kept).
func (r *Relation) Dedup() *Relation {
	seen := newRowSet(len(r.Rows))
	out := NewRelation(r.Cols)
	for _, row := range r.Rows {
		if seen.add(row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// SortRows orders rows lexicographically in place, for deterministic output.
func (r *Relation) SortRows() {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// EqualAsSet reports whether two relations hold the same set of rows
// (column labels are ignored; arity must match).
func (r *Relation) EqualAsSet(other *Relation) bool {
	if r.Arity() != other.Arity() {
		return false
	}
	a := newRowSet(len(r.Rows))
	for _, row := range r.Rows {
		a.add(row)
	}
	b := newRowSet(len(other.Rows))
	for _, row := range other.Rows {
		b.add(row)
	}
	if a.len() != b.len() {
		return false
	}
	for _, row := range other.Rows {
		if !a.has(row) {
			return false
		}
	}
	return true
}

// Project returns the projection of r onto the given labels; constant labels
// project as constant columns. Output is deduplicated.
func (r *Relation) Project(cols []cq.Term) (*Relation, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		if c.IsConst() {
			idx[i] = -1
			continue
		}
		j := r.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("engine: projection column %v not in %v", c, r.Cols)
		}
		idx[i] = j
	}
	out := NewRelation(cols)
	seen := newRowSet(len(r.Rows))
	nr := make(Row, len(cols))
	for _, row := range r.Rows {
		for i, j := range idx {
			if j < 0 {
				nr[i] = cols[i].ConstID()
			} else {
				nr[i] = row[j]
			}
		}
		if kept, added := seen.addCopy(nr); added {
			out.Rows = append(out.Rows, kept)
		}
	}
	return out, nil
}

// SizeBytes estimates the in-memory footprint of the relation's data
// (8 bytes per value), used by tests and reports on view storage.
func (r *Relation) SizeBytes() int { return 8 * len(r.Rows) * len(r.Cols) }
