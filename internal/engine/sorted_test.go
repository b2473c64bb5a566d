package engine

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// TestSortedExtentChurn drives a maintained extent — a Relation in Sorted
// order, changed only through Merged — over arities 1–5 against a map model,
// with random batches of removals and additions over small domains, so
// batches remove rows the extent lacks and add rows it holds. After every
// batch the extent must be strictly increasing (sorted, each row once),
// hold exactly the model's rows with no spare slab capacity, and answer
// Contains for every row of the domain as the model does; an extent taken
// midway must not move while later merges build on it.
func TestSortedExtentChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for arity := 1; arity <= 5; arity++ {
		domain := []int{0, 400, 20, 8, 5, 4}[arity]
		cols := []cq.Term{cq.Var(1), cq.Var(2), cq.Var(3), cq.Var(4), cq.Var(5)}[:arity]
		key := func(r Row) (k [5]dict.ID) {
			copy(k[:], r)
			return k
		}
		row := make(Row, arity)
		check := func(step int, x *Relation, model map[[5]dict.ID]bool) {
			t.Helper()
			rows := rowsOf(x)
			if !slices.IsSortedFunc(rows, slices.Compare[Row]) || len(slices.CompactFunc(slices.Clone(rows), slices.Equal[Row])) != len(rows) {
				t.Fatalf("arity %d step %d: the extent is not strictly increasing", arity, step)
			}
			if len(rows) != len(model) || x.SizeBytes() != 4*arity*len(rows) {
				t.Fatalf("arity %d step %d: %d rows in %d B, model %d rows", arity, step, len(rows), x.SizeBytes(), len(model))
			}
			for _, r := range rows {
				if !model[key(r)] {
					t.Fatalf("arity %d step %d: the extent holds %v, the model does not", arity, step, r)
				}
			}
			var all func(c int)
			all = func(c int) {
				if c == arity {
					if x.Contains(row) != model[key(row)] {
						t.Fatalf("arity %d step %d: Contains(%v) = %v, model %v", arity, step, row, x.Contains(row), model[key(row)])
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
		x := Sorted(NewRelation(cols))
		model := make(map[[5]dict.ID]bool)
		var mid *Relation
		var midModel map[[5]dict.ID]bool
		for step := 0; step < 2000; step++ {
			del, add := NewRelation(cols), NewRelation(cols)
			var dels, adds []Row
			for k := rng.Intn(8); k >= 0; k-- {
				r := make(Row, arity)
				for c := range r {
					r[c] = dict.ID(rng.Intn(domain) + 1)
				}
				// Add-heavy first, remove-heavy after, so the extent grows
				// and then drains.
				if rng.Intn(10) < 6 == (step < 1000) {
					add.Append(r)
					adds = append(adds, r)
				} else {
					del.Append(r)
					dels = append(dels, r)
				}
			}
			x = Merged(x, Sorted(del), Sorted(add))
			for _, r := range dels {
				delete(model, key(r))
			}
			for _, r := range adds {
				model[key(r)] = true
			}
			if step%100 == 0 {
				check(step, x, model)
			}
			if step == 700 {
				mid, midModel = x, maps.Clone(model)
			}
		}
		check(2000, x, model)
		check(2000, mid, midModel)
	}
}
