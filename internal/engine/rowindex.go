package engine

// Exported row-hashing containers for callers that maintain relations
// incrementally (internal/maintain): the executor's distinct set, and an
// index over the idTable + chain machinery its hash joins use, so membership
// tests, inserts and deletes hash raw ID words instead of allocating an
// 8·arity-byte string key per row.

// RowSet is a set of rows for set-semantics deduplication. Rows are keyed by
// a 64-bit hash with collisions resolved by value comparison; membership
// tests allocate nothing.
type RowSet struct{ s rowSet }

// NewRowSet returns an empty set sized for the hint.
func NewRowSet(sizeHint int) *RowSet { return &RowSet{s: *newRowSet(sizeHint)} }

// Add inserts the row unless present, reporting whether it was new. The set
// keeps a reference: the caller must not mutate the row afterwards.
func (s *RowSet) Add(row Row) bool { return s.s.add(row) }

// Has reports membership.
func (s *RowSet) Has(row Row) bool { return s.s.has(row) }

// Len returns the number of rows in the set.
func (s *RowSet) Len() int { return s.s.len() }

// RowIndex keeps a relation's rows indexed by value, supporting O(1)
// membership, append-if-absent and swap-delete — the extent maintenance
// primitives of incremental view maintenance. The index and the relation
// move together: mutate the relation only through the index.
type RowIndex struct {
	rel   *Relation
	table *idTable // row hash -> chain head, as row position + 1
	next  []int32  // collision chain, same encoding as table
}

// NewRowIndex indexes the relation's current rows (assumed distinct).
func NewRowIndex(rel *Relation) *RowIndex {
	x := &RowIndex{rel: rel, table: newIDTable(len(rel.Rows))}
	for pos := range rel.Rows {
		x.link(int32(pos))
	}
	return x
}

// link adds position pos (== len(next)) to its hash chain.
func (x *RowIndex) link(pos int32) {
	h := hashRow(x.rel.Rows[pos])
	x.next = append(x.next, x.table.get(h))
	x.table.put(h, pos+1)
}

// find returns the row's position + 1, or 0 when absent.
func (x *RowIndex) find(row Row) int32 {
	for j := x.table.get(hashRow(row)); j != 0; j = x.next[j-1] {
		if rowsEqual(x.rel.Rows[j-1], row) {
			return j
		}
	}
	return 0
}

// unlink removes position pos from its hash chain.
func (x *RowIndex) unlink(pos int32) {
	h := hashRow(x.rel.Rows[pos])
	head := x.table.get(h)
	if head == pos+1 {
		x.table.put(h, x.next[pos])
		return
	}
	for j := head; j != 0; j = x.next[j-1] {
		if x.next[j-1] == pos+1 {
			x.next[j-1] = x.next[pos]
			return
		}
	}
}

// Has reports whether the relation contains the row.
func (x *RowIndex) Has(row Row) bool { return x.find(row) != 0 }

// Add appends the row to the relation unless present, reporting whether it
// was added. The relation keeps a reference to the row.
func (x *RowIndex) Add(row Row) bool {
	if x.find(row) != 0 {
		return false
	}
	x.rel.Rows = append(x.rel.Rows, row)
	x.link(int32(len(x.rel.Rows) - 1))
	return true
}

// Remove deletes the row from the relation (swapping the last row into its
// place), reporting whether it was present.
func (x *RowIndex) Remove(row Row) bool {
	j := x.find(row)
	if j == 0 {
		return false
	}
	pos := j - 1
	last := int32(len(x.rel.Rows) - 1)
	x.unlink(pos)
	if pos != last {
		x.unlink(last)
		x.rel.Rows[pos] = x.rel.Rows[last]
	}
	x.rel.Rows = x.rel.Rows[:last]
	x.next = x.next[:last]
	if pos != last {
		// Re-link the moved row under its new position.
		h := hashRow(x.rel.Rows[pos])
		x.next[pos] = x.table.get(h)
		x.table.put(h, pos+1)
	}
	return true
}

// Len returns the relation's row count.
func (x *RowIndex) Len() int { return len(x.rel.Rows) }

// Relation returns the indexed relation. Mutate it only through the index.
func (x *RowIndex) Relation() *Relation { return x.rel }

// Clone returns an independent copy of the index over an independent copy of
// the relation — the copy-on-write step of atomic extent publication: the
// async maintainer clones an extent, applies a batch of deltas to the clone,
// and publishes it with a pointer swap while readers keep draining the
// original. Row values are shared (rows are never mutated in place), so the
// copy costs one slice per structure, not one per row.
func (x *RowIndex) Clone() *RowIndex {
	rel := &Relation{
		Cols: x.rel.Cols,
		Rows: append([]Row(nil), x.rel.Rows...),
	}
	return &RowIndex{rel: rel, table: x.table.clone(), next: append([]int32(nil), x.next...)}
}
