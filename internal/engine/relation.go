// Package engine implements query evaluation: conjunctive queries and unions
// thereof over the indexed triple store (the stand-in for the paper's
// PostgreSQL triple table), materialization of views, and execution of the
// select-project-join-union rewriting plans produced by the search. All
// evaluation uses set semantics, matching the distinct answers of conjunctive
// query theory that the paper's definitions are built on.
package engine

import (
	"fmt"
	"math"
	"slices"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// Row is one result tuple of dictionary-encoded values: what a stream hands
// out and what a relation's accessors widen into.
type Row []dict.ID

// Relation is a materialized set of rows with labeled columns. Column labels
// are cq terms: the head terms of the view the relation materializes, or the
// relabeled columns of a plan node.
//
// Values are stored column-major in 32-bit columns, one []uint32 slab per
// label and no per-row allocation: 4 bytes a value where a Row takes 8 plus
// a 24-byte header. IDs are narrowed once, on Append (the dictionary hands
// them out densely from 1, and Append rejects any outside [0,
// math.MaxUint32]), and widened on every read; a caller's key is never
// narrowed, the stored side is widened to meet it.
type Relation struct {
	Cols []cq.Term
	vals [][]uint32 // vals[c][i] is row i's value in column c
	n    int
}

// idRangePanic is what Append panics with when a row holds an ID outside [0,
// 2^32-1]: stored columns are 32 bits wide. The relation is left unchanged.
const idRangePanic = "engine: relation value outside [0, 2^32-1] cannot be stored"

// widthPanic is what Append panics with on a row whose width is not the
// relation's arity.
const widthPanic = "engine: a row of %d values cannot be stored in a relation of %d columns"

// NewRelation returns an empty relation with the given column labels, the
// only way to make one.
func NewRelation(cols []cq.Term) *Relation {
	return &Relation{Cols: append([]cq.Term(nil), cols...), vals: make([][]uint32, len(cols))}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Cols) }

// Len returns the number of rows.
func (r *Relation) Len() int { return r.n }

// ColIndex returns the index of the first column with the given label, or -1.
func (r *Relation) ColIndex(label cq.Term) int {
	for i, c := range r.Cols {
		if c == label {
			return i
		}
	}
	return -1
}

// Row widens row i into dst (reusing its storage) and returns it.
func (r *Relation) Row(i int, dst Row) Row {
	dst = dst[:0]
	for _, col := range r.vals {
		dst = append(dst, dict.ID(col[i]))
	}
	return dst
}

// At returns row i's value in column c.
func (r *Relation) At(i, c int) dict.ID { return dict.ID(r.vals[c][i]) }

// Append adds a row, narrowing its values into the column slabs. It panics,
// leaving the relation unchanged, on a row of the wrong width or with an ID
// outside [0, 2^32-1].
func (r *Relation) Append(row Row) {
	if len(row) != len(r.Cols) {
		panic(fmt.Sprintf(widthPanic, len(row), len(r.Cols)))
	}
	for _, v := range row {
		if uint64(v) > math.MaxUint32 { // a negative ID sets the sign bit
			panic(idRangePanic)
		}
	}
	for c, v := range row {
		r.vals[c] = append(r.vals[c], uint32(v))
	}
	r.n++
}

// appendBatch appends the batch's selected rows, narrowing one column at a
// time. On an ID outside [0, 2^32-1] it truncates what it wrote and panics.
func (r *Relation) appendBatch(b *batch, sel []int32) {
	cols := r.vals
	var wide uint64
	for c, col := range cols {
		col = slices.Grow(col, len(sel))[:r.n+len(sel)]
		dst, src := col[r.n:], b.cols[c]
		for k, i := range sel {
			v := src[i]
			wide |= uint64(v)
			dst[k] = uint32(v)
		}
		cols[c] = col
	}
	if wide > math.MaxUint32 {
		for c := range cols {
			cols[c] = cols[c][:r.n]
		}
		panic(idRangePanic)
	}
	r.n += len(sel)
}

// trim reallocates every column slab with more than a kilobyte of spare
// capacity, so a materialized extent holds what it stores and not append's
// growth slack (up to a quarter of a large slab).
func (r *Relation) trim() {
	for c, col := range r.vals {
		if cap(col)-len(col) > 256 {
			r.vals[c] = append(make([]uint32, 0, len(col)), col...)
		}
	}
}

// clone returns an independent copy: one slab per column.
func (r *Relation) clone() *Relation {
	out := &Relation{Cols: r.Cols, vals: make([][]uint32, len(r.vals)), n: r.n}
	for c, col := range r.vals {
		out.vals[c] = slices.Clone(col)
	}
	return out
}

// hashAt hashes row i's values, in column order; for a row within the
// 32-bit range it equals hashRow of the widened row.
func (r *Relation) hashAt(i int) uint64 {
	h := hashSeed
	for _, col := range r.vals {
		h = hashMix(h, uint64(col[i]))
	}
	return h
}

// equalAt reports whether row i equals key (as wide as the relation). The
// stored values are widened, so a key value of 2^32 or above matches
// nothing.
func (r *Relation) equalAt(i int, key Row) bool {
	for c, col := range r.vals {
		if dict.ID(col[i]) != key[c] {
			return false
		}
	}
	return true
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
func (r *Relation) Dedup() *Relation { return r.distinct().rel }

// distinct indexes a deduplicated copy of r.
func (r *Relation) distinct() *RowIndex {
	x := NewRowIndex(NewRelation(r.Cols))
	row := make(Row, 0, r.Arity())
	for i := 0; i < r.n; i++ {
		row = r.Row(i, row)
		x.Add(row)
	}
	return x
}

// EqualAsSet reports whether two relations hold the same set of rows
// (column labels are ignored; arity must match).
func (r *Relation) EqualAsSet(other *Relation) bool {
	if r.Arity() != other.Arity() {
		return false
	}
	a, b := r.distinct(), other.distinct()
	if a.Len() != b.Len() {
		return false
	}
	row := make(Row, 0, r.Arity())
	for i := 0; i < b.Len(); i++ {
		if row = b.rel.Row(i, row); !a.Has(row) {
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
	out := NewRowIndex(NewRelation(cols))
	nr := make(Row, len(cols))
	for i := 0; i < r.n; i++ {
		for k, j := range idx {
			if j < 0 {
				nr[k] = cols[k].ConstID()
			} else {
				nr[k] = r.At(i, j)
			}
		}
		out.Add(nr)
	}
	return out.rel, nil
}

// SizeBytes is the in-memory footprint of the relation's data: the bytes its
// column slabs hold, 4 per allocated value. It is what the CLI and
// Views.SizeBytes report as view storage.
func (r *Relation) SizeBytes() int {
	n := 0
	for _, col := range r.vals {
		n += 4 * cap(col)
	}
	return n
}
