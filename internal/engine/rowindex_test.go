package engine

import (
	"math/rand"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// TestRowIndexChurn drives RowIndex through random add/remove churn against
// a map model, exercising the swap-delete chain fixups.
func TestRowIndexChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rel := NewRelation([]cq.Term{cq.Var(1), cq.Var(2)})
	x := NewRowIndex(rel)
	model := make(map[[2]dict.ID]bool)
	mkRow := func() Row {
		return Row{dict.ID(rng.Intn(30) + 1), dict.ID(rng.Intn(30) + 1)}
	}
	key := func(r Row) [2]dict.ID { return [2]dict.ID{r[0], r[1]} }
	for i := 0; i < 20000; i++ {
		r := mkRow()
		if rng.Intn(2) == 0 {
			if got, want := x.Add(r), !model[key(r)]; got != want {
				t.Fatalf("step %d: Add(%v) = %v, want %v", i, r, got, want)
			}
			model[key(r)] = true
		} else {
			if got, want := x.Remove(r), model[key(r)]; got != want {
				t.Fatalf("step %d: Remove(%v) = %v, want %v", i, r, got, want)
			}
			delete(model, key(r))
		}
		if x.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", i, x.Len(), len(model))
		}
	}
	// Final sweep: membership agrees row-by-row, and the relation holds
	// exactly the model's rows.
	for a := 1; a <= 30; a++ {
		for b := 1; b <= 30; b++ {
			r := Row{dict.ID(a), dict.ID(b)}
			if x.Has(r) != model[key(r)] {
				t.Fatalf("Has(%v) = %v, model %v", r, x.Has(r), model[key(r)])
			}
		}
	}
	for _, row := range rel.Rows {
		if !model[key(row)] {
			t.Fatalf("relation holds %v not in model", row)
		}
	}
}

func TestRowSetDedup(t *testing.T) {
	s := NewRowSet(4)
	for i := 0; i < 100; i++ {
		row := Row{dict.ID(i%10 + 1), dict.ID(i%5 + 1)}
		want := i < 10 // first 10 combinations are fresh
		if got := s.Add(append(Row(nil), row...)); got != want {
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
