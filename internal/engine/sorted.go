package engine

import (
	"cmp"
	"slices"
	"sort"

	"rdfviews/internal/dict"
)

// A maintained extent is a Relation kept sorted on its columns, left to
// right, each row once: the order is its index. Membership is a binary
// search (Contains), and a batch of changes is one linear merge of the old
// extent with its sorted removals and additions (Merged), which leaves the
// old extent untouched for the readers still draining it. Sorted puts a
// relation in that order.

// Sorted returns r's rows sorted on its columns, left to right, without
// duplicates, in a new relation whose slabs hold what they store.
func Sorted(r *Relation) *Relation {
	by := make([]int32, r.n)
	for i := range by {
		by[i] = int32(i)
	}
	slices.SortFunc(by, func(a, b int32) int { return r.cmpRows(int(a), r, int(b)) })
	by = slices.CompactFunc(by, func(a, b int32) bool { return r.cmpRows(int(a), r, int(b)) == 0 })
	out := &Relation{Cols: r.Cols, vals: make([][]uint32, len(r.vals)), n: len(by)}
	for c, col := range r.vals {
		dst := make([]uint32, len(by))
		for k, i := range by {
			dst[k] = col[i]
		}
		out.vals[c] = dst
	}
	return out
}

// Contains reports whether r, in Sorted order, holds row: a binary search.
// A key value of 2^32 or above compares as itself, so it matches nothing.
func (r *Relation) Contains(row Row) bool {
	if len(row) != r.Arity() {
		return false
	}
	i := r.lowerBound(row, 0)
	return i < r.n && r.cmpKey(i, row) == 0
}

// Merged returns old without the rows of del and with the rows of add, in
// Sorted order, as one linear merge into a new relation with no spare
// capacity; old, del and add must be in Sorted order, and old is left as it
// is. A row of del that old lacks is ignored, one of add that old holds is
// kept once, and a row in both del and add ends up present.
func Merged(old, del, add *Relation) *Relation {
	out := &Relation{Cols: old.Cols, vals: make([][]uint32, len(old.vals))}
	for c := range out.vals {
		out.vals[c] = make([]uint32, 0, old.n-min(del.n, old.n)+add.n)
	}
	from := 0 // old's rows before from are copied or dropped
	di, ai := 0, 0
	for di < del.n || ai < add.n {
		// The next change in row order; a removal goes first on a tie.
		src, k := del, di
		if di == del.n || (ai < add.n && add.cmpRows(ai, del, di) < 0) {
			src, k = add, ai
		}
		at := old.lowerBoundOf(src, k, from)
		out.appendRows(old, from, at)
		from = at
		present := at < old.n && old.cmpRows(at, src, k) == 0
		if src == del {
			di++
			if present {
				from++
			}
			continue
		}
		ai++
		if !present {
			out.appendRows(src, k, k+1)
		}
	}
	out.appendRows(old, from, old.n)
	for c, col := range out.vals {
		out.vals[c] = slices.Clip(col)
	}
	return out
}

// appendRows appends src's rows [lo, hi), one copy per column.
func (r *Relation) appendRows(src *Relation, lo, hi int) {
	if lo >= hi {
		return
	}
	for c, col := range src.vals {
		r.vals[c] = append(r.vals[c], col[lo:hi]...)
	}
	r.n += hi - lo
}

// cmpRows three-way compares r's row i with o's row j, column by column.
func (r *Relation) cmpRows(i int, o *Relation, j int) int {
	for c, col := range r.vals {
		if a, b := col[i], o.vals[c][j]; a != b {
			return cmp.Compare(a, b)
		}
	}
	return 0
}

// cmpKey three-way compares r's row i, widened, with key.
func (r *Relation) cmpKey(i int, key Row) int {
	for c, col := range r.vals {
		if a := dict.ID(col[i]); a != key[c] {
			return cmp.Compare(a, key[c])
		}
	}
	return 0
}

// lowerBound returns the first row at or after from that does not sort
// below key.
func (r *Relation) lowerBound(key Row, from int) int {
	return from + sort.Search(r.n-from, func(k int) bool { return r.cmpKey(from+k, key) >= 0 })
}

// lowerBoundOf is lowerBound for o's row j as the key.
func (r *Relation) lowerBoundOf(o *Relation, j, from int) int {
	return from + sort.Search(r.n-from, func(k int) bool { return r.cmpRows(from+k, o, j) >= 0 })
}
