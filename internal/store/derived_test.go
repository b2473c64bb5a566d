package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rdfviews/internal/dict"
)

// TestDerivedOrdersOnHubs reads SOP and OPS, the orders no side keeps, off a
// subject and an object that each hold more than 2×deltaMax triples, so
// their runs cross threshold merges, removals and re-adds, on a flat layout
// of one shard and of four and on Dual(2,2). At every phase an SOP cursor
// with S bound and with S and O bound, and an OPS cursor with O bound and
// with O and P bound, drained and after a seek, must equal the model's
// triples sorted in that order, and so must Match, sorted; an S,O-bound
// Count must equal the model and allocate nothing.
func TestDerivedOrdersOnHubs(t *testing.T) {
	preds := []dict.ID{10, 11, 12, 13, 14, 15, 16, 17}
	rng := rand.New(rand.NewSource(5))
	var ts []Triple
	for i := 0; i < 2*deltaMax+100; i++ {
		p := preds[rng.Intn(len(preds))]
		ts = append(ts, Triple{hubS, p, dict.ID(100 + i)}, Triple{dict.ID(100 + i), p, hubO})
		ts = append(ts, Triple{dict.ID(5000 + rng.Intn(300)), p, dict.ID(5000 + rng.Intn(300))})
	}
	for _, p := range preds {
		ts = append(ts, Triple{hubS, p, hubO})
	}
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })

	for _, k := range [][2]int{{1, 0}, {4, 0}, {2, 2}} {
		t.Run(fmt.Sprintf("Dual(%d,%d)", k[0], k[1]), func(t *testing.T) {
			st := NewDual(k[0], k[1])
			model := map[Triple]bool{}
			for _, tr := range ts {
				st.Add(tr)
				model[tr] = true
			}
			checkDerived(t, st, model, "loaded")

			// Remove more than deltaMax hub triples (a tombstone merge),
			// re-add half of them, then remove a few and leave them
			// tombstoned.
			var gone []Triple
			for i, tr := range ts {
				if (tr[S] == hubS || tr[O] == hubO) && i%3 == 0 {
					st.Remove(tr)
					delete(model, tr)
					gone = append(gone, tr)
				}
			}
			checkDerived(t, st, model, "removed")
			for _, tr := range gone[:len(gone)/2] {
				st.Add(tr)
				model[tr] = true
			}
			for _, tr := range ts[:60] {
				if st.Remove(tr) {
					delete(model, tr)
				}
			}
			checkDerived(t, st, model, "re-added")

			// The hub shards crossed merges and are left dirty. A dual
			// subject side keeps its SPO base in place, a flat one as a list.
			sub := st.shards[shardOfID(hubS, len(st.shards))].cur.Load()
			if base := len(sub.base[SPO]) + len(sub.inPlace(SPO)); base == 0 || len(sub.tomb) == 0 {
				t.Fatalf("the subject hub's shard has %d base and %d tombstoned positions, want both",
					base, len(sub.tomb))
			}
		})
	}
}

// hubS and hubO are the hub subject and object of TestDerivedOrdersOnHubs.
const hubS, hubO = dict.ID(1), dict.ID(2)

// checkDerived runs TestDerivedOrdersOnHubs's checks against the model.
func checkDerived(t *testing.T, st *Store, model map[Triple]bool, phase string) {
	t.Helper()
	snap := st.Snapshot()
	for _, c := range []struct {
		p   Perm
		pat Pattern
	}{
		{SOP, Pattern{hubS, Wildcard, Wildcard}},
		{SOP, Pattern{hubS, Wildcard, hubO}},
		{SOP, Pattern{hubS, Wildcard, 150}},
		{OPS, Pattern{Wildcard, Wildcard, hubO}},
		{OPS, Pattern{Wildcard, 12, hubO}},
	} {
		var want []Triple
		for tr := range model {
			if (c.pat[S] == Wildcard || tr[S] == c.pat[S]) && (c.pat[P] == Wildcard || tr[P] == c.pat[P]) &&
				(c.pat[O] == Wildcard || tr[O] == c.pat[O]) {
				want = append(want, tr)
			}
		}
		slices.SortFunc(want, func(a, b Triple) int { return permCmp(a, b, perms[c.p]) })
		if got := drain(snap.NewCursor(c.p, c.pat)); !slices.Equal(got, want) {
			t.Fatalf("%s: %v cursor over %v streams %d triples, want %d sorted from the model", phase, c.p, c.pat, len(got), len(want))
		}
		match := snap.Match(c.pat)
		slices.SortFunc(match, func(a, b Triple) int { return permCmp(a, b, perms[c.p]) })
		if !slices.Equal(match, want) {
			t.Fatalf("%s: Match(%v) sorted in %v differs from the model", phase, c.pat, c.p)
		}

		// Seek on the first free column after a few triples have streamed.
		col := perms[c.p][2]
		if c.pat[perms[c.p][1]] == Wildcard {
			col = perms[c.p][1]
		}
		for _, skip := range []int{0, 3} {
			if skip >= len(want) {
				continue
			}
			key := want[len(want)/2][col]
			cur := snap.NewCursor(c.p, c.pat)
			got := make([]Triple, skip, len(want))
			if n := cur.NextBatch(got); n != skip {
				t.Fatalf("%s: %v cursor over %v gave %d of the first %d triples", phase, c.p, c.pat, n, skip)
			}
			cur.SeekGE(col, key)
			got = append(got, drain(cur)...)
			seek := slices.Clone(want[:skip])
			for _, tr := range want[skip:] {
				if tr[col] >= key {
					seek = append(seek, tr)
				}
			}
			if !slices.Equal(got, seek) {
				t.Fatalf("%s: %v cursor over %v after %d triples and SeekGE(%s, %d) streams %d triples, want %d",
					phase, c.p, c.pat, skip, ColumnName(col), key, len(got), len(seek))
			}
		}

		if c.p != SOP || c.pat[O] == Wildcard {
			continue
		}
		if got := snap.Count(c.pat); got != len(want) {
			t.Fatalf("%s: Count(%v) = %d, model %d", phase, c.pat, got, len(want))
		}
		if allocs := testing.AllocsPerRun(20, func() { snap.Count(c.pat) }); allocs != 0 {
			t.Fatalf("%s: Count(%v) allocates %.0f times, want 0", phase, c.pat, allocs)
		}
	}
}
