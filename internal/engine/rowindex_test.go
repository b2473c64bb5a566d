package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// mustPanic runs f and fails unless it panics with want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	f()
}

// TestRelationRejectsWideIDs pins the narrowing contract: an ID outside
// [0, 2^32-1] is never stored — Append, RowIndex.Add and a collected batch
// panic and leave relation and index as they were — and a key holding one is
// never narrowed to meet a stored row: Has, and Contains on the relation in
// Sorted order, of 2^32 + a stored ID, or of a parameter sentinel at 2^56,
// match nothing.
func TestRelationRejectsWideIDs(t *testing.T) {
	cols := []cq.Term{cq.Var(1), cq.Var(2)}
	stored := []Row{{1, 2}, {3, 4}, {0, math.MaxUint32}}
	rel := relOf(cols, stored...)
	x := NewRowIndex(rel)
	sorted := Sorted(relOf(cols, stored...))
	unchanged := func(what string) {
		t.Helper()
		if got := rowsOf(rel); !slices.EqualFunc(got, stored, slices.Equal[Row]) {
			t.Fatalf("%s: relation holds %v, want %v", what, got, stored)
		}
		for _, r := range stored {
			if !x.Has(r) {
				t.Fatalf("%s: index lost %v", what, r)
			}
		}
	}
	for _, bad := range []Row{{1 << 32, 2}, {1, 1<<32 + 2}, {1 << 56, 0}, {-1, 2}} {
		mustPanic(t, idRangePanic, func() { rel.Append(bad) })
		unchanged(fmt.Sprintf("Append(%v)", bad))
		mustPanic(t, idRangePanic, func() { x.Add(bad) })
		unchanged(fmt.Sprintf("Add(%v)", bad))
		b := newBatch(2)
		b.n = 2
		b.cols[0][0], b.cols[1][0] = 5, 6
		b.cols[0][1], b.cols[1][1] = bad[0], bad[1]
		mustPanic(t, idRangePanic, func() { rel.appendBatch(b, b.liveSel()) })
		unchanged(fmt.Sprintf("a batch holding %v", bad))
	}
	for _, key := range []Row{{1<<32 + 1, 2}, {1, 1<<32 + 2}, {1<<32 + 3, 1<<32 + 4}, {1 << 56, 2}, {0, 1<<32 + math.MaxUint32}} {
		if x.Has(key) {
			t.Errorf("Has(%v) matched a stored row", key)
		}
		if sorted.Contains(key) {
			t.Errorf("Contains(%v) matched a stored row", key)
		}
	}
	mustPanic(t, fmt.Sprintf(widthPanic, 1, 2), func() { x.Add(Row{1}) })
	unchanged("Add of a short row")
	if x.Has(Row{1}) || sorted.Contains(Row{1}) || sorted.Contains(Row{1, 2, 3}) {
		t.Error("a key of the wrong width matched")
	}
}

// TestRowSetDedup adds 100 rows that repeat 10 distinct ones to a RowIndex
// started at the smallest table, as a projection's dedup does: only the first
// of each is fresh, each is found after its Add, and 10 are kept.
func TestRowSetDedup(t *testing.T) {
	s := newRowIndexSized(NewRelation([]cq.Term{cq.Var(1), cq.Var(2)}), 4)
	for i := 0; i < 100; i++ {
		row := Row{dict.ID(i%10 + 1), dict.ID(i%5 + 1)}
		want := i < 10 // first 10 combinations are fresh
		if got := s.Add(row); got != want {
			t.Fatalf("i=%d: Add(%v) = %v, want %v", i, row, got, want)
		}
		if !s.Has(row) {
			t.Fatalf("i=%d: Has(%v) = false after Add", i, row)
		}
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
}

// TestRowSetMatchesMapModel is the seeded differential of a projection's
// dedup set, a RowIndex, against a Go map over widths 1–5: an add-only run
// over a wide domain with about 30 % duplicates, in which Has, Add and Len
// must answer as the model does and the relation must hold the kept rows in
// insertion order.
func TestRowSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for arity := 1; arity <= 5; arity++ {
		cols := []cq.Term{cq.Var(1), cq.Var(2), cq.Var(3), cq.Var(4), cq.Var(5)}[:arity]
		key := func(r Row) (k [5]dict.ID) {
			copy(k[:], r)
			return k
		}

		dedup := newRowIndexSized(NewRelation(cols), 4)
		kept := make(map[[5]dict.ID]bool)
		var order []Row
		for i := 0; i < 5000; i++ {
			r := make(Row, arity)
			if len(order) > 0 && rng.Intn(10) < 3 {
				copy(r, order[rng.Intn(len(order))])
			} else {
				for c := range r {
					r[c] = dict.ID(rng.Intn(1 << 20))
				}
			}
			if got, want := dedup.Has(r), kept[key(r)]; got != want {
				t.Fatalf("arity %d dedup step %d: Has(%v) = %v, model %v", arity, i, r, got, want)
			}
			if got, want := dedup.Add(r), !kept[key(r)]; got != want {
				t.Fatalf("arity %d dedup step %d: Add(%v) = %v, want %v", arity, i, r, got, want)
			}
			if !kept[key(r)] {
				kept[key(r)] = true
				order = append(order, r)
			}
			if dedup.Len() != len(kept) {
				t.Fatalf("arity %d dedup step %d: Len = %d, model %d", arity, i, dedup.Len(), len(kept))
			}
		}
		if got := rowsOf(dedup.Relation()); !slices.EqualFunc(got, order, slices.Equal[Row]) {
			t.Fatalf("arity %d: the deduplicated rows are not the kept rows in insertion order", arity)
		}
	}
}
