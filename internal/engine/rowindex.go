package engine

import "fmt"

// RowIndex keeps a relation's rows indexed by value, supporting O(1)
// membership and append-if-absent: the set internal/maintain deduplicates
// delta rows with, and the set a deduplicating projectOp keeps the rows it
// emitted in — the engine's one set of rows. A maintained extent is not one:
// it is a Relation kept sorted (Sorted, Merged). The index and the relation
// move together: append to the relation only through the index.
//
// The index is one open-addressed table of row positions, probed linearly:
// 4 bytes a slot and nothing per row. It stores no hashes — a probe
// recomputes a row's hash from the columns and compares values — and no
// collision chains.
type RowIndex struct {
	rel   *Relation
	slots []int32 // row position + 1, 0 = empty; power-of-two length, load at most 3/4
}

// NewRowIndex indexes the relation's current rows (assumed distinct).
func NewRowIndex(rel *Relation) *RowIndex { return newRowIndexSized(rel, 0) }

// newRowIndexSized is NewRowIndex with a table sized for at least sizeHint
// rows, so a set expected to grow to that size skips the doublings on the
// way: a deduplicating projection sizes its set from the plan's estimate.
func newRowIndexSized(rel *Relation, sizeHint int) *RowIndex {
	x := &RowIndex{rel: rel, slots: make([]int32, tableSlots(max(sizeHint, rel.Len())))}
	for pos := 0; pos < rel.Len(); pos++ {
		x.place(pos)
	}
	return x
}

func (x *RowIndex) mask() uint64 { return uint64(len(x.slots) - 1) }

// place puts position pos in the first empty slot of its probe run; the
// row must not be in the table.
func (x *RowIndex) place(pos int) {
	mask := x.mask()
	i := x.rel.hashAt(pos) & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = int32(pos + 1)
}

// find probes for key. When the row is present it returns its slot and
// true; otherwise the empty slot the row belongs in. A key as wide as the
// relation but holding a value of 2^32 or above hashes and compares as
// itself, so it is found nowhere.
func (x *RowIndex) find(key Row) (uint64, bool) {
	mask := x.mask()
	for i := hashRow(key) & mask; ; i = (i + 1) & mask {
		p := x.slots[i]
		if p == 0 {
			return i, false
		}
		if x.rel.equalAt(int(p-1), key) {
			return i, true
		}
	}
}

// Has reports whether the relation contains the row.
func (x *RowIndex) Has(row Row) bool {
	if len(row) != x.rel.Arity() {
		return false
	}
	_, found := x.find(row)
	return found
}

// Add appends the row to the relation unless present, reporting whether it
// was added. The row's values are copied. Like Relation.Append it panics on
// a row of the wrong width or with an ID outside [0, 2^32-1], leaving the
// relation and the index unchanged.
func (x *RowIndex) Add(row Row) bool {
	if len(row) != x.rel.Arity() {
		panic(fmt.Sprintf(widthPanic, len(row), x.rel.Arity()))
	}
	slot, found := x.find(row)
	if found {
		return false
	}
	x.rel.Append(row)
	x.slots[slot] = int32(x.rel.Len())
	if x.rel.Len()*4 > len(x.slots)*3 {
		x.grow()
	}
	return true
}

// grow doubles the table and re-places every position by its recomputed
// hash.
func (x *RowIndex) grow() {
	x.slots = make([]int32, 2*len(x.slots))
	for pos := 0; pos < x.rel.Len(); pos++ {
		x.place(pos)
	}
}

// Len returns the relation's row count.
func (x *RowIndex) Len() int { return x.rel.Len() }

// Relation returns the indexed relation. Mutate it only through the index.
func (x *RowIndex) Relation() *Relation { return x.rel }
