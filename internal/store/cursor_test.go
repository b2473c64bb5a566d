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

// cursorMatches drains a cursor and checks order plus set-equality with Match.
func checkCursor(t *testing.T, st *Store, p Perm, pat Pattern) {
	t.Helper()
	var got []Triple
	c := st.NewCursor(p, pat)
	for {
		tr, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, tr)
	}
	// Order: non-decreasing in permutation order.
	order := p.Order()
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		less := false
		eq := true
		for _, c := range order {
			if a[c] != b[c] {
				less = a[c] < b[c]
				eq = false
				break
			}
		}
		if !less && !eq {
			t.Fatalf("cursor %v out of order at %d: %v after %v", p, i, b, a)
		}
	}
	want := st.Match(pat)
	if len(got) != len(want) {
		t.Fatalf("cursor %v pat %v: %d triples, Match gives %d", p, pat, len(got), len(want))
	}
	sortTriples(got)
	sortTriples(want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cursor %v pat %v: triple sets differ", p, pat)
		}
	}
}

func sortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		for k := 0; k < 3; k++ {
			if ts[i][k] != ts[j][k] {
				return ts[i][k] < ts[j][k]
			}
		}
		return false
	})
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
	state string // fixtureState's verdict
}

// fixtureState classifies a store's published snapshots: "tombstoned" when
// any shard holds tombstones, "overlay" when any holds insert-overlay
// positions, otherwise "clean" (every triple in a base index).
func fixtureState(st *Store) string {
	state := "clean"
	for _, sh := range append(append([]*shard(nil), st.shards...), st.oshards...) {
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
// pinned to the decode path it exercises: a store loaded one Add at a time
// stays in its overlays (below deltaMax), a Clone is compacted into the base
// indexes, and Remove/Add after that leaves overlays and tombstones. The
// clean stores take NextBatch's merge over shard base runs (a flat gather on
// one shard), the dirty single-shard ones its inlined overlay merge and the
// dirty sharded ones its pull through Next.
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
	}
	for _, f := range fx {
		if got := fixtureState(f.st); got != f.state {
			t.Fatalf("fixture %s is %s, want %s", f.name, got, f.state)
		}
	}
	return fx
}

// TestCursorNextBatchMatchesNext drives NextBatch against a fresh Next-driven
// cursor over every permutation and pattern shape, across the decode paths
// (cursorFixtures) and residual-filtered patterns. Varied batch sizes catch
// resume bugs at batch boundaries.
func TestCursorNextBatchMatchesNext(t *testing.T) {
	for _, fx := range cursorFixtures(t, 300, 7) {
		name, st := fx.name, fx.st
		ts := st.Triples()
		pats := []Pattern{
			{},
			{Wildcard, ts[1][P], Wildcard},
			{ts[3][S], ts[3][P], Wildcard},
			{ts[4][S], Wildcard, ts[4][O]}, // forces residual filters on some perms
			{Wildcard, ts[5][P], ts[5][O]},
		}
		for _, pat := range pats {
			for p := SPO; p <= OPS; p++ {
				for _, bs := range []int{1, 3, 64, 1024} {
					var want []Triple
					ref := st.NewCursor(p, pat)
					for {
						tr, ok := ref.Next()
						if !ok {
							break
						}
						want = append(want, tr)
					}
					var got []Triple
					c := st.NewCursor(p, pat)
					buf := make([]Triple, bs)
					for {
						n := c.NextBatch(buf)
						if n == 0 {
							break
						}
						got = append(got, buf[:n]...)
					}
					if len(got) != len(want) {
						t.Fatalf("%s perm=%v pat=%v bs=%d: NextBatch %d triples, Next %d",
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
	}
}

// TestCursorNextBatchInterleaved mixes Next and NextBatch calls on one
// cursor over every fixture: the head-buffer handoff between the two paths
// must not skip or duplicate triples.
func TestCursorNextBatchInterleaved(t *testing.T) {
	for _, fx := range cursorFixtures(t, 200, 11) {
		st := fx.st
		var want []Triple
		ref := st.NewCursor(PSO, Pattern{})
		for {
			tr, ok := ref.Next()
			if !ok {
				break
			}
			want = append(want, tr)
		}
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
			t.Fatalf("%s: interleaved drain streams %d triples, Next %d, or they differ", fx.name, len(got), len(want))
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

// TestCursorSeekGE drives SeekGE against a reference cursor that skips by
// draining Next, over every fixture (clean, overlay and tombstoned; one
// shard and several), every permutation, and seek keys landing before,
// inside and past each stream. After each seek the remainders must match
// triple for triple, drained by Next and by NextBatch.
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
				probe := st.NewCursor(p, pat)
				for i := 0; ; i++ {
					tr, ok := probe.Next()
					if !ok {
						break
					}
					if i%17 == 0 {
						keys = append(keys, tr[col], tr[col]+1)
					}
				}
				for ki, key := range keys {
					// Mix of positions before seeking: fresh cursor, and one
					// mid-stream (a few Next calls consumed).
					for _, pre := range []int{0, 3} {
						ref := st.NewCursor(p, pat)
						c := st.NewCursor(p, pat)
						cb := st.NewCursor(p, pat)
						for i := 0; i < pre; i++ {
							ref.Next()
							c.Next()
							cb.Next()
						}
						c.SeekGE(col, key)
						cb.SeekGE(col, key)
						var want []Triple
						for {
							tr, ok := ref.Next()
							if !ok {
								break
							}
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
