package store

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rdfviews/internal/dict"
)

func randomStore(t *testing.T, n int, seed int64) *Store {
	t.Helper()
	st := New()
	rng := rand.New(rand.NewSource(seed))
	d := st.Dict()
	ids := make([]dict.ID, 12)
	for i := range ids {
		ids[i] = d.EncodeIRI("r" + string(rune('a'+i)))
	}
	for i := 0; i < n; i++ {
		st.Add(Triple{
			ids[rng.Intn(len(ids))],
			ids[rng.Intn(4)],
			ids[rng.Intn(len(ids))],
		})
	}
	return st
}

func TestPermForCoversAllShapes(t *testing.T) {
	cols := [][]int{{}, {S}, {P}, {O}, {S, P}, {S, O}, {P, O}, {S, P, O}}
	for _, bound := range cols {
		inBound := func(c int) bool {
			for _, b := range bound {
				if b == c {
					return true
				}
			}
			return false
		}
		for then := -1; then < 3; then++ {
			if then >= 0 && inBound(then) {
				if _, ok := PermFor(bound, then); ok {
					t.Errorf("PermFor(%v, %d) should fail: then is bound", bound, then)
				}
				continue
			}
			if then >= 0 && len(bound) == 3 {
				continue
			}
			p, ok := PermFor(bound, then)
			if !ok {
				t.Fatalf("PermFor(%v, %d) found no permutation", bound, then)
			}
			order := p.Order()
			for k := 0; k < len(bound); k++ {
				if !inBound(order[k]) {
					t.Errorf("PermFor(%v, %d) = %v: position %d not bound", bound, then, p, k)
				}
			}
			if then >= 0 && len(bound) < 3 && order[len(bound)] != then {
				t.Errorf("PermFor(%v, %d) = %v: next column is %d", bound, then, p, order[len(bound)])
			}
		}
	}
	if _, ok := PermFor([]int{S, S}, -1); ok {
		t.Error("duplicate bound column should fail")
	}
	if _, ok := PermFor([]int{5}, -1); ok {
		t.Error("out-of-range column should fail")
	}
}

func TestPermString(t *testing.T) {
	want := map[Perm]string{SPO: "spo", SOP: "sop", PSO: "pso", POS: "pos", OSP: "osp", OPS: "ops"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

// checkCursor drains a cursor and checks it against reference triple for
// triple, order included.
func checkCursor(t *testing.T, st *Store, p Perm, pat Pattern) {
	t.Helper()
	got, want := drain(st.NewCursor(p, pat)), reference(st, p, pat)
	if !slices.Equal(got, want) {
		t.Fatalf("cursor %v pat %v streams %d triples, reference %d, or they differ", p, pat, len(got), len(want))
	}
}

// reference is the cursor differentials' oracle and shares no code with
// Cursor: the store's live triples (Triples) that match the pattern, sorted
// in the permutation's column order.
func reference(st *Store, p Perm, pat Pattern) []Triple {
	var out []Triple
	for _, tr := range st.Triples() {
		if (pat[S] == Wildcard || tr[S] == pat[S]) &&
			(pat[P] == Wildcard || tr[P] == pat[P]) &&
			(pat[O] == Wildcard || tr[O] == pat[O]) {
			out = append(out, tr)
		}
	}
	order := p.Order()
	sort.Slice(out, func(i, j int) bool {
		for _, c := range order {
			if out[i][c] != out[j][c] {
				return out[i][c] < out[j][c]
			}
		}
		return false
	})
	return out
}

func TestCursorAllPermsAllPatterns(t *testing.T) {
	st := randomStore(t, 300, 7)
	ts := st.Triples()
	pick := func(i int) dict.ID { return ts[i%len(ts)][i%3] }
	pats := []Pattern{
		{},
		{ts[0][S], Wildcard, Wildcard},
		{Wildcard, ts[1][P], Wildcard},
		{Wildcard, Wildcard, ts[2][O]},
		{ts[3][S], ts[3][P], Wildcard},
		{ts[4][S], Wildcard, ts[4][O]},
		{Wildcard, ts[5][P], ts[5][O]},
		{ts[6][S], ts[6][P], ts[6][O]},
		{pick(7), pick(8), Wildcard}, // likely empty
	}
	for _, pat := range pats {
		for p := SPO; p <= OPS; p++ {
			checkCursor(t, st, p, pat)
		}
	}

	// Every permutation x every boundness shape on the dual layouts streams
	// exactly what the one-shard store streams, in order — whichever side
	// Route picks, and in particular where an object-bound pattern arrives
	// under a permutation the object side does not keep. The dual stores
	// carry overlays and tombstones on both sides: loaded one triple at a
	// time, with a slice removed and re-added.
	for _, k := range [][2]int{{2, 2}, {3, 5}} {
		dual := NewWithDictDual(st.Dict(), k[0], k[1])
		for _, tr := range ts {
			dual.Add(tr)
		}
		for _, tr := range ts[:40] {
			dual.Remove(tr)
		}
		for _, tr := range ts[:40] {
			dual.Add(tr)
		}
		for _, pat := range pats {
			for p := SPO; p <= OPS; p++ {
				want, got := drain(st.NewCursor(p, pat)), drain(dual.NewCursor(p, pat))
				if !slices.Equal(got, want) {
					t.Fatalf("Dual(%d,%d) cursor %v pat %v streams %v, one shard %v", k[0], k[1], p, pat, got, want)
				}
			}
		}
	}
}

func drain(c Cursor) []Triple {
	var out []Triple
	for {
		tr, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, tr)
	}
}

// cursorFixture is one store the cursor differentials run on, with the
// snapshot state its shards must be in.
type cursorFixture struct {
	name  string
	st    *Store
	state string // sideState's verdict, on each side of the layout
}

// sideState classifies one side's published shard snapshots: "tombstoned"
// when any shard holds tombstones, "overlay" when any holds insert-overlay
// positions, otherwise "clean" (every triple in a base index).
func sideState(shards []*shard) string {
	state := "clean"
	for _, sh := range shards {
		s := sh.cur.Load()
		if len(s.tomb) > 0 {
			return "tombstoned"
		}
		for _, d := range s.delta {
			if len(d) > 0 {
				state = "overlay"
			}
		}
	}
	return state
}

// cursorFixtures builds the stores the cursor differentials cover, each
// pinned to the snapshot state its shards are in: a store loaded one Add at a
// time stays in its overlays (below deltaMax), a Clone is compacted into the
// base indexes, and Remove/Add after that leaves overlays and tombstones — on
// both sides of a dual layout. Clean shards stream their base runs as they
// lie; dirty ones merge base and overlay and skip tombstones, one shard or
// several.
func cursorFixtures(t *testing.T, n int, seed int64) []cursorFixture {
	t.Helper()
	flat := randomStore(t, n, seed)
	ts := flat.Triples()
	d := flat.Dict()
	dirty := func(st *Store, tag string) *Store {
		for i := 0; i < 20; i++ {
			st.Remove(ts[i*7%len(ts)])
		}
		for i := 0; i < 25; i++ {
			st.Add(Triple{d.EncodeIRI(tag), d.EncodeIRI(tag + "p"), d.EncodeIRI(string(rune('a' + i)))})
		}
		return st
	}
	sharded := NewWithDictSharded(d, 4)
	sharded.AddBatch(ts)
	dual := NewWithDictDual(d, 2, 2)
	dual.AddBatch(ts)
	fx := []cursorFixture{
		{"flat", flat, "overlay"},
		{"flat-clean", flat.Clone(), "clean"},
		{"overlays", dirty(flat.Clone(), "nb"), "tombstoned"},
		{"sharded", sharded, "overlay"},
		{"sharded-clean", sharded.Clone(), "clean"},
		{"sharded-tombstoned", dirty(sharded.Clone(), "ns"), "tombstoned"},
		{"dual-clean", dual.Clone(), "clean"},
		{"dual-tombstoned", dirty(dual.Clone(), "nd"), "tombstoned"},
	}
	for _, f := range fx {
		for _, side := range [][]*shard{f.st.shards, f.st.oshards} {
			if got := sideState(side); len(side) > 0 && got != f.state {
				t.Fatalf("fixture %s has a %s side, want %s", f.name, got, f.state)
			}
		}
	}
	return fx
}

// TestCursorNextBatchMatchesReference drains NextBatch over every
// permutation and pattern shape on every fixture, against reference: each
// snapshot state, one shard and several, with and without residual filters.
// Varied batch sizes catch resume bugs at batch boundaries. Every dirty
// multi-shard fixture must see residual-filtered cursors over several shards.
func TestCursorNextBatchMatchesReference(t *testing.T) {
	for _, fx := range cursorFixtures(t, 300, 7) {
		name, st := fx.name, fx.st
		ts := st.Triples()
		pats := []Pattern{
			{},
			{Wildcard, ts[1][P], Wildcard},
			{ts[3][S], ts[3][P], Wildcard},
			{ts[4][S], Wildcard, ts[4][O]}, // residual filters on one shard under some perms
			{Wildcard, ts[5][P], ts[5][O]}, // ... and over every shard of a side
			{Wildcard, Wildcard, ts[6][O]},
		}
		residualFanOut := 0
		for _, pat := range pats {
			for p := SPO; p <= OPS; p++ {
				want := reference(st, p, pat)
				for _, bs := range []int{1, 3, 64, 1024} {
					var got []Triple
					c := st.NewCursor(p, pat)
					if c.nres > 0 && len(c.subs) > 1 {
						residualFanOut++
					}
					buf := make([]Triple, bs)
					for {
						n := c.NextBatch(buf)
						if n == 0 {
							break
						}
						got = append(got, buf[:n]...)
					}
					if len(got) != len(want) {
						t.Fatalf("%s perm=%v pat=%v bs=%d: NextBatch %d triples, reference %d",
							name, p, pat, bs, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s perm=%v pat=%v bs=%d: triple %d differs: %v vs %v",
								name, p, pat, bs, i, got[i], want[i])
						}
					}
				}
			}
		}
		if fx.state == "tombstoned" && st.NumShards() > 1 && residualFanOut == 0 {
			t.Fatalf("%s: no residual-filtered cursor spans several shards", name)
		}
	}
}

// TestCursorNextBatchInterleaved mixes Next and NextBatch calls on one
// cursor over every fixture: a one-triple pull and a batch must hand the
// shard heads over without skipping or duplicating triples.
func TestCursorNextBatchInterleaved(t *testing.T) {
	for _, fx := range cursorFixtures(t, 200, 11) {
		st := fx.st
		want := reference(st, PSO, Pattern{})
		c := st.NewCursor(PSO, Pattern{})
		var got []Triple
		buf := make([]Triple, 7)
		for turn := 0; ; turn++ {
			if turn%2 == 0 {
				tr, ok := c.Next()
				if !ok {
					break
				}
				got = append(got, tr)
				continue
			}
			n := c.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: interleaved drain streams %d triples, reference %d, or they differ", fx.name, len(got), len(want))
		}
	}
}

func TestCursorRemaining(t *testing.T) {
	st := randomStore(t, 100, 3)
	c := st.NewCursor(SPO, Pattern{})
	if c.Remaining() != st.Len() {
		t.Fatalf("Remaining = %d, want %d", c.Remaining(), st.Len())
	}
	c.Next()
	if c.Remaining() != st.Len()-1 {
		t.Fatalf("Remaining after Next = %d", c.Remaining())
	}
}

// TestCursorSeekGE drives SeekGE against reference with the skipped triples
// dropped, over every fixture (clean, overlay and tombstoned; one shard and
// several), every permutation, and seek keys landing before, inside and past
// each stream. After each seek the remainders must match triple for triple,
// drained by Next and by NextBatch.
func TestCursorSeekGE(t *testing.T) {
	for _, fx := range cursorFixtures(t, 300, 7) {
		name, st := fx.name, fx.st
		ts := st.Triples()
		pats := []Pattern{
			{},
			{Wildcard, ts[1][P], Wildcard},
			{ts[3][S], ts[3][P], Wildcard},
		}
		for _, pat := range pats {
			for p := SPO; p <= OPS; p++ {
				// col is the stream's sort column: the first wildcard
				// position in permutation order.
				order := p.Order()
				col := -1
				for _, c := range order {
					if pat[c] == Wildcard {
						col = c
						break
					}
				}
				if col < 0 {
					continue
				}
				// Sample seek keys: 0, a few stream values (exact and +1),
				// and past the end.
				keys := []dict.ID{0, 1 << 40}
				all := reference(st, p, pat)
				for i := 0; i < len(all); i += 17 {
					keys = append(keys, all[i][col], all[i][col]+1)
				}
				for ki, key := range keys {
					// Mix of positions before seeking: fresh cursor, and one
					// mid-stream (a few Next calls consumed).
					for _, pre := range []int{0, 3} {
						c := st.NewCursor(p, pat)
						cb := st.NewCursor(p, pat)
						for i := 0; i < pre; i++ {
							c.Next()
							cb.Next()
						}
						c.SeekGE(col, key)
						cb.SeekGE(col, key)
						var want []Triple
						for _, tr := range all[min(pre, len(all)):] {
							if tr[col] >= key {
								want = append(want, tr)
							}
						}
						var got []Triple
						for {
							tr, ok := c.Next()
							if !ok {
								break
							}
							got = append(got, tr)
						}
						var gotB []Triple
						buf := make([]Triple, 5)
						for {
							n := cb.NextBatch(buf)
							if n == 0 {
								break
							}
							gotB = append(gotB, buf[:n]...)
						}
						if !slices.Equal(gotB, got) {
							t.Fatalf("%s perm=%v pat=%v key#%d pre=%d: NextBatch after SeekGE streams %v, Next %v",
								name, p, pat, ki, pre, gotB, got)
						}
						if len(got) != len(want) {
							t.Fatalf("%s perm=%v pat=%v key#%d pre=%d: SeekGE leaves %d triples, reference %d",
								name, p, pat, ki, pre, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s perm=%v pat=%v key#%d pre=%d: triple %d differs: %v vs %v",
									name, p, pat, ki, pre, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}
