package engine

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// TestRowIndexChurn drives RowIndex, the engine's one set of rows, over
// arities 1–5 against a map model with random add/remove churn over small
// domains, so probe runs collide and swap-deletes re-point moved rows all the
// time. Every few hundred steps the relation must hold exactly the model's
// rows, each once, and every row in the domain must answer Has as the model
// does; a clone taken midway must not move with the original.
func TestRowIndexChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for arity := 1; arity <= 5; arity++ {
		domain := []int{0, 400, 20, 8, 5, 4}[arity]
		cols := []cq.Term{cq.Var(1), cq.Var(2), cq.Var(3), cq.Var(4), cq.Var(5)}[:arity]
		key := func(r Row) (k [5]dict.ID) {
			copy(k[:], r)
			return k
		}
		x := NewRowIndex(NewRelation(cols))
		model := make(map[[5]dict.ID]bool)
		row := make(Row, arity)
		check := func(step int, x *RowIndex, model map[[5]dict.ID]bool) {
			t.Helper()
			if x.Len() != len(model) {
				t.Fatalf("arity %d step %d: Len = %d, model %d", arity, step, x.Len(), len(model))
			}
			seen := make(map[[5]dict.ID]bool, x.Len())
			for _, r := range rowsOf(x.Relation()) {
				if !model[key(r)] || seen[key(r)] {
					t.Fatalf("arity %d step %d: relation holds %v (in model %v, seen before %v)",
						arity, step, r, model[key(r)], seen[key(r)])
				}
				seen[key(r)] = true
			}
			var all func(c int)
			all = func(c int) {
				if c == arity {
					if x.Has(row) != model[key(row)] {
						t.Fatalf("arity %d step %d: Has(%v) = %v, model %v", arity, step, row, x.Has(row), model[key(row)])
					}
					return
				}
				for v := 1; v <= domain; v++ {
					row[c] = dict.ID(v)
					all(c + 1)
				}
			}
			all(0)
		}
		var clone *RowIndex
		var cloneModel map[[5]dict.ID]bool
		for i := 0; i < 20000; i++ {
			r := make(Row, arity)
			for c := range r {
				r[c] = dict.ID(rng.Intn(domain) + 1)
			}
			// Add-heavy first, remove-heavy after, so the table grows and
			// then drains through backward shifts.
			if rng.Intn(10) < 6 == (i < 10000) {
				if got, want := x.Add(r), !model[key(r)]; got != want {
					t.Fatalf("arity %d step %d: Add(%v) = %v, want %v", arity, i, r, got, want)
				}
				model[key(r)] = true
			} else {
				if got, want := x.Remove(r), model[key(r)]; got != want {
					t.Fatalf("arity %d step %d: Remove(%v) = %v, want %v", arity, i, r, got, want)
				}
				delete(model, key(r))
			}
			if i%500 == 0 {
				check(i, x, model)
			}
			if i == 7000 {
				clone, cloneModel = x.Clone(), maps.Clone(model)
			}
		}
		check(20000, x, model)
		check(20000, clone, cloneModel)
	}
}

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
// never narrowed to meet a stored row: Has and Remove of 2^32 + a stored ID,
// or of a parameter sentinel at 2^56, match nothing.
func TestRelationRejectsWideIDs(t *testing.T) {
	cols := []cq.Term{cq.Var(1), cq.Var(2)}
	stored := []Row{{1, 2}, {3, 4}, {0, math.MaxUint32}}
	rel := relOf(cols, stored...)
	x := NewRowIndex(rel)
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
		if x.Remove(key) {
			t.Errorf("Remove(%v) removed a stored row", key)
		}
		unchanged(fmt.Sprintf("Remove(%v)", key))
	}
	mustPanic(t, fmt.Sprintf(widthPanic, 1, 2), func() { x.Add(Row{1}) })
	unchanged("Add of a short row")
	if x.Has(Row{1}) || x.Remove(Row{1, 2, 3}) {
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
