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

// TestCursorNextBatchMatchesNext drives NextBatch against a fresh Next-driven
// cursor over every permutation and pattern shape, across the decode paths:
// clean single-shard stores (the flat-gather fast path), stores with live
// insert overlays and tombstones (the per-triple fallback), residual-filtered
// patterns, and multi-shard merges. Varied batch sizes catch resume bugs at
// batch boundaries.
func TestCursorNextBatchMatchesNext(t *testing.T) {
	stores := map[string]*Store{"flat": randomStore(t, 300, 7)}
	// Overlay state: mutations past the last compaction leave delta/tombstone
	// overlays that the fast path must refuse.
	dirty := randomStore(t, 300, 7)
	ts := dirty.Triples()
	for i := 0; i < 20; i++ {
		dirty.Remove(ts[i*7%len(ts)])
	}
	d := dirty.Dict()
	for i := 0; i < 25; i++ {
		dirty.Add(Triple{d.EncodeIRI("nb"), d.EncodeIRI("nbp"), d.EncodeIRI(string(rune('a' + i)))})
	}
	stores["overlays"] = dirty
	sharded := NewWithDictSharded(randomStore(t, 1, 1).Dict(), 4)
	sharded.AddBatch(stores["flat"].Triples())
	stores["sharded"] = sharded

	for name, st := range stores {
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
// cursor: the head-buffer handoff between the two paths must not skip or
// duplicate triples.
func TestCursorNextBatchInterleaved(t *testing.T) {
	st := randomStore(t, 200, 11)
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
	if len(got) != len(want) {
		t.Fatalf("interleaved drain: %d triples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("interleaved drain: triple %d differs", i)
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
// draining Next, over clean, overlay and sharded stores, every permutation,
// and seek keys landing before, inside and past each stream. After each seek
// the remainders must match triple for triple.
func TestCursorSeekGE(t *testing.T) {
	stores := map[string]*Store{"flat": randomStore(t, 300, 7)}
	dirty := randomStore(t, 300, 7)
	dts := dirty.Triples()
	for i := 0; i < 20; i++ {
		dirty.Remove(dts[i*7%len(dts)])
	}
	d := dirty.Dict()
	for i := 0; i < 25; i++ {
		dirty.Add(Triple{d.EncodeIRI("sk"), d.EncodeIRI("skp"), d.EncodeIRI(string(rune('a' + i)))})
	}
	stores["overlays"] = dirty
	sharded := NewWithDictSharded(randomStore(t, 1, 1).Dict(), 4)
	sharded.AddBatch(stores["flat"].Triples())
	stores["sharded"] = sharded

	for name, st := range stores {
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
						for i := 0; i < pre; i++ {
							ref.Next()
							c.Next()
						}
						c.SeekGE(col, key)
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
