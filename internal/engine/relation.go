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

// EqualAsSet reports whether two relations hold the same set of rows
// (column labels are ignored; arity must match). It sorts and compacts
// widened copies of both, so it shares no set with the operators whose
// answers it compares.
func (r *Relation) EqualAsSet(other *Relation) bool {
	return r.Arity() == other.Arity() && slices.EqualFunc(sortedDistinct(r), sortedDistinct(other), slices.Equal[Row])
}

// sortedDistinct widens r's rows, sorted and without duplicates.
func sortedDistinct(r *Relation) []Row {
	rows := make([]Row, r.n)
	for i := range rows {
		rows[i] = r.Row(i, nil)
	}
	slices.SortFunc(rows, slices.Compare[Row])
	return slices.CompactFunc(rows, slices.Equal[Row])
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
