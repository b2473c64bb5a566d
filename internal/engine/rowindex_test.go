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

// TestRowIndexChurn drives RowIndex through random add/remove churn against
// a map model over arities 1–3 and small domains, so probe runs collide and
// swap-deletes re-point moved rows all the time. Every few hundred steps the
// relation must hold exactly the model's rows, each once, and every row in
// the domain must answer Has as the model does; a clone taken midway must not
// move with the original.
func TestRowIndexChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for arity := 1; arity <= 3; arity++ {
		domain := []int{0, 400, 20, 8}[arity]
		cols := []cq.Term{cq.Var(1), cq.Var(2), cq.Var(3)}[:arity]
		rel := NewRelation(cols)
		x := NewRowIndex(rel)
		model := make(map[[3]dict.ID]bool)
		key := func(r Row) (k [3]dict.ID) {
			copy(k[:], r)
			return k
		}
		row := make(Row, arity)
		check := func(step int, x *RowIndex, model map[[3]dict.ID]bool) {
			t.Helper()
			if x.Len() != len(model) {
				t.Fatalf("arity %d step %d: Len = %d, model %d", arity, step, x.Len(), len(model))
			}
			seen := make(map[[3]dict.ID]bool, x.Len())
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
		var cloneModel map[[3]dict.ID]bool
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
		if got := rowsOf(rel); !slices.EqualFunc(got, stored, rowsEqual) {
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

func TestRowSetDedup(t *testing.T) {
	s := newRowSet(4)
	for i := 0; i < 100; i++ {
		row := Row{dict.ID(i%10 + 1), dict.ID(i%5 + 1)}
		want := i < 10 // first 10 combinations are fresh
		if got := s.add(append(Row(nil), row...)); got != want {
			t.Fatalf("i=%d: add(%v) = %v, want %v", i, row, got, want)
		}
		if !s.has(row) {
			t.Fatalf("i=%d: has(%v) = false after add", i, row)
		}
	}
	if s.len() != 10 {
		t.Fatalf("len = %d, want 10", s.len())
	}
}

// TestRowSetForcedHashCollisions inserts 1,000 distinct rows under one hash:
// the table degenerates into a single probe run in which only the row
// comparison tells entries apart. Every row must be kept, found again and
// never mistaken for another, across the growths that re-place the run.
func TestRowSetForcedHashCollisions(t *testing.T) {
	const h = 0xdecafbad
	s := newRowSet(16)
	start := len(s.slots)
	row := func(i int) Row { return Row{dict.ID(i + 1), dict.ID(i%7 + 1)} }
	for i := 0; i < 1000; i++ {
		slot, found := s.find(h, row(i))
		if found {
			t.Fatalf("row %d reported present before its insertion", i)
		}
		s.insert(slot, h, row(i))
	}
	if s.len() != 1000 {
		t.Fatalf("len = %d, want 1000", s.len())
	}
	if len(s.slots) < 4*start {
		t.Fatalf("table went from %d to %d slots: fewer than two growths", start, len(s.slots))
	}
	for i := 0; i < 1000; i++ {
		slot, found := s.find(h, row(i))
		if !found {
			t.Fatalf("row %d lost", i)
		}
		if got := s.rows[s.slots[slot].ref-1]; !rowsEqual(got, row(i)) {
			t.Fatalf("row %d found as %v", i, got)
		}
	}
	if _, found := s.find(h, Row{dict.ID(1001), 1}); found {
		t.Fatal("a row never inserted was found under the shared hash")
	}
}

// TestRowSetMatchesMapModel is the seeded differential of the set against a
// Go map over widths 1–5 with about 30 % duplicates: add, addCopy, has, len
// and the insertion order of rows.
func TestRowSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	key := func(r Row) string {
		b := make([]byte, 0, 8*len(r))
		for _, v := range r {
			for s := 0; s < 64; s += 8 {
				b = append(b, byte(v>>s))
			}
		}
		return string(b)
	}
	for width := 1; width <= 5; width++ {
		s := newRowSet(4)
		model := map[string]struct{}{}
		var order []Row
		scratch := make(Row, width)
		for i := 0; i < 5000; i++ {
			if len(order) > 0 && rng.Intn(10) < 3 {
				copy(scratch, order[rng.Intn(len(order))])
			} else {
				for c := range scratch {
					scratch[c] = dict.ID(rng.Intn(1 << 20))
				}
			}
			_, dup := model[key(scratch)]
			if s.has(scratch) != dup {
				t.Fatalf("width %d step %d: has(%v) = %v, model %v", width, i, scratch, !dup, dup)
			}
			var added bool
			if i%2 == 0 {
				var kept Row
				kept, added = s.addCopy(scratch)
				if !rowsEqual(kept, scratch) || (added && &kept[0] == &scratch[0]) {
					t.Fatalf("width %d step %d: addCopy(%v) kept %v (added %v)", width, i, scratch, kept, added)
				}
			} else {
				added = s.add(append(Row(nil), scratch...))
			}
			if added == dup {
				t.Fatalf("width %d step %d: added = %v for a row the model has = %v", width, i, added, dup)
			}
			if added {
				model[key(scratch)] = struct{}{}
				order = append(order, append(Row(nil), scratch...))
			}
			if s.len() != len(model) {
				t.Fatalf("width %d step %d: len = %d, model %d", width, i, s.len(), len(model))
			}
		}
		for i, r := range order {
			if !rowsEqual(s.rows[i], r) {
				t.Fatalf("width %d: rows[%d] = %v, inserted %v", width, i, s.rows[i], r)
			}
		}
	}
}
