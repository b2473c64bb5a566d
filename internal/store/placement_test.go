package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rdfviews/internal/dict"
)

// TestPlacementRouteBoundness checks the routing rule over every boundness
// shape: a route goes to the one side that keeps the permutation, and opens
// the one shard owning the pattern when that side's partition column (S on
// the subject side, O on the object side) is bound, all of them otherwise.
func TestPlacementRouteBoundness(t *testing.T) {
	const s, p, o = dict.ID(7), dict.ID(8), dict.ID(9)
	flat := Placement{SubjectShards: 4}
	dual := Placement{SubjectShards: 4, ObjectShards: 8}

	cases := []struct {
		name string
		pl   Placement
		perm Perm
		pat  Pattern
		want Route
	}{
		{"flat/subject-bound", flat, SPO, Pattern{s, Wildcard, Wildcard},
			Route{Side: SubjectSide, Shard: shardOfID(s, 4), K: 4}},
		{"flat/subject-bound-any-perm", flat, POS, Pattern{s, p, Wildcard},
			Route{Side: SubjectSide, Shard: shardOfID(s, 4), K: 4}},
		{"flat/object-bound-fans-out", flat, OPS, Pattern{Wildcard, Wildcard, o},
			Route{Side: SubjectSide, Shard: -1, K: 4}},
		{"flat/unbound", flat, PSO, Pattern{Wildcard, p, Wildcard},
			Route{Side: SubjectSide, Shard: -1, K: 4}},
		{"dual/subject-bound", dual, SPO, Pattern{s, Wildcard, Wildcard},
			Route{Side: SubjectSide, Shard: shardOfID(s, 4), K: 4}},
		// Under a subject-side permutation a bound S pins the subject shard
		// even with O bound too.
		{"dual/subject-wins-over-object", dual, SPO, Pattern{s, p, o},
			Route{Side: SubjectSide, Shard: shardOfID(s, 4), K: 4}},
		{"dual/object-perm-all-bound", dual, POS, Pattern{s, p, o},
			Route{Side: ObjectSide, Shard: shardOfID(o, 8), K: 8}},
		{"dual/object-bound", dual, OPS, Pattern{Wildcard, Wildcard, o},
			Route{Side: ObjectSide, Shard: shardOfID(o, 8), K: 8}},
		// Any object-side permutation routes a bound O to its one shard.
		{"dual/object-bound-any-perm", dual, POS, Pattern{Wildcard, p, o},
			Route{Side: ObjectSide, Shard: shardOfID(o, 8), K: 8}},
		{"dual/object-bound-subject-perm", dual, PSO, Pattern{Wildcard, p, o},
			Route{Side: SubjectSide, Shard: -1, K: 4}},
		{"dual/subject-bound-object-perm", dual, POS, Pattern{s, p, Wildcard},
			Route{Side: ObjectSide, Shard: -1, K: 8}},
		{"dual/unbound-subject-perm", dual, SPO, Pattern{},
			Route{Side: SubjectSide, Shard: -1, K: 4}},
		{"dual/unbound-object-perm", dual, OSP, Pattern{},
			Route{Side: ObjectSide, Shard: -1, K: 8}},
		{"dual/predicate-only", dual, PSO, Pattern{Wildcard, p, Wildcard},
			Route{Side: SubjectSide, Shard: -1, K: 4}},
		{"dual/predicate-only-pos", dual, POS, Pattern{Wildcard, p, Wildcard},
			Route{Side: ObjectSide, Shard: -1, K: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.pl.Route(tc.perm, tc.pat); got != tc.want {
				t.Fatalf("Route(%v, %v) = %+v, want %+v", tc.perm, tc.pat, got, tc.want)
			}
		})
	}
	if flat.Dual() || !dual.Dual() {
		t.Fatal("Dual() wrong")
	}

	// Route is total: for every permutation and boundness shape it names the
	// one side that keeps the permutation's source (the permutation itself,
	// or SPO for SOP and OSP for OPS), a shard inside that side, and the one
	// owning shard whenever the side's partition column is bound.
	for _, pl := range []Placement{flat, {SubjectShards: 2, ObjectShards: 2}, {SubjectShards: 3, ObjectShards: 5}} {
		st := NewDual(pl.SubjectShards, pl.ObjectShards)
		for perm := SPO; perm <= OPS; perm++ {
			for _, pat := range boundnessShapes(s, p, o) {
				r := pl.Route(perm, pat)
				side, k, col := st.shards, pl.SubjectShards, S
				if r.Side == ObjectSide {
					side, k, col = st.oshards, pl.ObjectShards, O
				}
				if k == 0 || !slices.Contains(side[0].perms, sourceOf[perm]) {
					t.Fatalf("%+v: Route(%v, %v) = %+v names a side without that permutation's source", pl, perm, pat, r)
				}
				want := -1
				if pat[col] != Wildcard {
					want = shardOfID(pat[col], k)
				}
				if r.K != k || r.Shard != want {
					t.Fatalf("%+v: Route(%v, %v) = %+v, want shard %d of %d", pl, perm, pat, r, want, k)
				}
			}
		}
	}

	// The permutations the planner asks for keep their pruning: under what
	// indexFor or PermFor picks for a shape, a bound S pins one subject shard,
	// and on a dual layout a bound O with S free pins one object shard.
	for _, pl := range []Placement{flat, dual} {
		for _, pat := range boundnessShapes(s, p, o) {
			var bound []int
			for c := range pat {
				if pat[c] != Wildcard {
					bound = append(bound, c)
				}
			}
			pi, _ := indexFor(pat)
			picked := []Perm{Perm(pi)}
			for then := -1; then < 3; then++ {
				if perm, ok := PermFor(bound, then); ok {
					picked = append(picked, perm)
				}
			}
			for _, perm := range picked {
				r := pl.Route(perm, pat)
				switch {
				case pat[S] != Wildcard:
					if r != (Route{Side: SubjectSide, Shard: shardOfID(s, 4), K: 4}) {
						t.Fatalf("%+v: Route(%v, %v) = %+v, want its one subject shard", pl, perm, pat, r)
					}
				case pat[O] != Wildcard && pl.Dual():
					if r != (Route{Side: ObjectSide, Shard: shardOfID(o, 8), K: 8}) {
						t.Fatalf("%+v: Route(%v, %v) = %+v, want its one object shard", pl, perm, pat, r)
					}
				}
			}
		}
	}
	if r := dual.Route(OPS, Pattern{Wildcard, Wildcard, o}); r.Len() != 1 {
		t.Fatalf("point route Len = %d", r.Len())
	}
	if r := dual.Route(OSP, Pattern{}); r.Len() != 8 || r.String() != "object 8/8" {
		t.Fatalf("fan-out route = %+v (%s)", r, r)
	}
}

// boundnessShapes returns the eight patterns binding each subset of the
// columns to s, p and o.
func boundnessShapes(s, p, o dict.ID) []Pattern {
	var out []Pattern
	for shape := 0; shape < 8; shape++ {
		var pat Pattern
		for c, id := range []dict.ID{s, p, o} {
			if shape&(1<<c) != 0 {
				pat[c] = id
			}
		}
		out = append(out, pat)
	}
	return out
}

// TestEachPermutationOnOneSide checks that a layout keeps four orders, each
// once: on a dual layout each of SPO, PSO, POS and OSP is held by exactly
// one side, a flat layout's one side holds all four, no side holds SOP or
// OPS (they are read from SPO and OSP), and a loaded store builds an index
// for no order its side does not keep.
func TestEachPermutationOnOneSide(t *testing.T) {
	kept := []Perm{SPO, PSO, POS, OSP}
	for _, k := range [][2]int{{1, 0}, {4, 0}, {2, 2}, {3, 5}} {
		st := NewDual(k[0], k[1])
		st.AddBatch(seededTriples(4*deltaMax, 3))
		for perm := SPO; perm <= OPS; perm++ {
			holders := 0
			for _, side := range [][]*shard{st.shards, st.oshards} {
				if len(side) > 0 && slices.Contains(side[0].perms, perm) {
					holders++
				}
			}
			want := 0
			if slices.Contains(kept, perm) {
				want = 1
			}
			if holders != want {
				t.Errorf("Dual(%d,%d): %v is held by %d sides, want %d", k[0], k[1], perm, holders, want)
			}
		}
		for _, side := range [][]*shard{st.shards, st.oshards} {
			for _, sh := range side {
				if !slices.Equal(sh.perms, side[0].perms) {
					t.Fatalf("Dual(%d,%d): shards of one side keep %v and %v", k[0], k[1], sh.perms, side[0].perms)
				}
				s := sh.cur.Load()
				for perm := SPO; perm <= OPS; perm++ {
					if !slices.Contains(sh.perms, perm) && (s.base[perm] != nil || s.delta[perm] != nil || len(s.inPlace(perm)) > 0) {
						t.Fatalf("Dual(%d,%d): a shard keeping %v holds an index for %v", k[0], k[1], sh.perms, perm)
					}
				}
			}
		}
	}
}

// TestDualMatchesModelUnderChurn is the sharded churn equivalence test
// (churnAgainstModel) over a dual-partitioned layout: every read must agree
// with the naive model whether placement serves it from the subject or the
// object side, across overlay thresholds, removals and re-adds on both sides.
func TestDualMatchesModelUnderChurn(t *testing.T) {
	st := NewDual(4, 4)
	if pl := st.Placement(); pl.SubjectShards != 4 || pl.ObjectShards != 4 {
		t.Fatalf("Placement = %+v, want 4/4", pl)
	}
	m, pats := churnAgainstModel(t, st, 53)

	// AddBatch routes to both sides like the Add loop does.
	st2 := NewWithDictDual(st.Dict(), 4, 4)
	st2.AddBatch(st.Triples())
	for _, pat := range pats {
		if a, b := st.Count(pat), st2.Count(pat); a != b {
			t.Fatalf("AddBatch dual count(%v) = %d, Add loop %d", pat, b, a)
		}
	}

	// Clone carries the object side with it.
	cl := st.Clone()
	if pl := cl.Placement(); !pl.Dual() {
		t.Fatalf("Clone placement = %+v, lost the object side", pl)
	}
	checkAgainstModel(t, cl, m, pats, "clone")
}

// TestObjectBoundLookupOpensOneShard is the pruning acceptance check: on a
// K=8 dual-partitioned store, an object-bound point lookup opens exactly one
// shard out of eight, observed through the pruning ledger.
func TestObjectBoundLookupOpensOneShard(t *testing.T) {
	st := randomDualStore(t, 8, 8, 2000, 17)
	o := st.Triples()[0][O]
	pat := Pattern{Wildcard, Wildcard, o}
	pi, _ := indexFor(pat)

	before := st.PruneStats().Snapshot()
	cur := st.NewCursor(Perm(pi), pat)
	n := 0
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
		n++
	}
	after := st.PruneStats().Snapshot()

	if opens := after.Opens - before.Opens; opens != 1 {
		t.Fatalf("ledger recorded %d opens, want 1", opens)
	}
	if opened := after.ShardsOpened - before.ShardsOpened; opened != 1 {
		t.Fatalf("object-bound lookup opened %d shards, want exactly 1", opened)
	}
	if total := after.ShardsTotal - before.ShardsTotal; total != 8 {
		t.Fatalf("routed side fan-out recorded %d, want 8", total)
	}
	if want := st.Count(pat); n != want {
		t.Fatalf("pruned cursor streamed %d triples, Count says %d", n, want)
	}

	// The same lookup on a subject-only K=8 store fans out over all 8 shards
	// — the contrast the ledger exists to make visible.
	flat := NewSharded(8)
	flat.AddBatch(st.Triples())
	fb := flat.PruneStats().Snapshot()
	flat.NewCursor(Perm(pi), pat)
	fa := flat.PruneStats().Snapshot()
	if opened := fa.ShardsOpened - fb.ShardsOpened; opened != 8 {
		t.Fatalf("flat store opened %d shards, want 8", opened)
	}
}

// TestCountRoutesThroughPlacement checks the Count fast path consults
// placement: object-bound counts on a dual store read one object shard, and
// still return exact answers (cross-checked against a full scan).
func TestCountRoutesThroughPlacement(t *testing.T) {
	st := randomDualStore(t, 4, 8, 1500, 23)
	naive := func(pat Pattern) int {
		n := 0
		for _, tr := range st.Triples() {
			ok := true
			for c := 0; c < 3; c++ {
				if pat[c] != Wildcard && tr[c] != pat[c] {
					ok = false
				}
			}
			if ok {
				n++
			}
		}
		return n
	}
	objs := st.Triples()[:5]
	for _, tr := range objs {
		pat := Pattern{Wildcard, Wildcard, tr[O]}
		pi, _ := indexFor(pat)
		r := st.Placement().Route(Perm(pi), pat)
		if r.Side != ObjectSide || r.Len() != 1 {
			t.Fatalf("count route for %v = %+v, want single object shard", pat, r)
		}
		if got, want := st.Count(pat), naive(pat); got != want {
			t.Fatalf("Count(%v) = %d, naive %d", pat, got, want)
		}
	}
	// Snapshot counts route identically.
	snap := st.Snapshot()
	for _, tr := range objs {
		pat := Pattern{Wildcard, Wildcard, tr[O]}
		if got, want := snap.Count(pat), st.Count(pat); got != want {
			t.Fatalf("snapshot Count(%v) = %d, store %d", pat, got, want)
		}
	}
}

// TestSnapshotRoutesLikeStore pins a dual store and checks the snapshot's
// routed reads agree with the live store while recording into the same
// ledger.
func TestSnapshotRoutesLikeStore(t *testing.T) {
	st := randomDualStore(t, 4, 4, 800, 29)
	snap := st.Snapshot()
	if pl := snap.Placement(); pl != st.Placement() {
		t.Fatalf("snapshot placement %+v != store %+v", pl, st.Placement())
	}
	o := st.Triples()[0][O]
	pat := Pattern{Wildcard, Wildcard, o}
	pi, _ := indexFor(pat)

	before := st.PruneStats().Snapshot()
	cur := snap.NewCursor(Perm(pi), pat)
	n := 0
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
		n++
	}
	after := st.PruneStats().Snapshot()
	if opened := after.ShardsOpened - before.ShardsOpened; opened != 1 {
		t.Fatalf("snapshot object-bound lookup opened %d shards, want 1", opened)
	}
	if want := snap.Count(pat); n != want {
		t.Fatalf("snapshot cursor streamed %d, Count says %d", n, want)
	}

	// Writes after the pin stay invisible on both sides.
	d := st.Dict()
	tr := Triple{d.EncodeIRI("late-s"), d.EncodeIRI("late-p"), o}
	st.Add(tr)
	if snap.Contains(tr) {
		t.Fatal("snapshot sees post-pin write")
	}
	if snap.Count(pat) != n {
		t.Fatal("snapshot object-side count moved after pin")
	}
}

// TestPruneSnapshotRatio covers the ledger arithmetic.
func TestPruneSnapshotRatio(t *testing.T) {
	var ps PruneStats
	ps.record(1, 8)
	ps.record(8, 8)
	snap := ps.Snapshot()
	if snap.Opens != 2 || snap.ShardsOpened != 9 || snap.ShardsTotal != 16 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := snap.Ratio(); got != 9.0/16.0 {
		t.Fatalf("Ratio = %v", got)
	}
	if (PruneSnapshot{}).Ratio() != 0 {
		t.Fatal("empty ratio not 0")
	}
	var nilPS *PruneStats
	nilPS.record(1, 1) // must not panic
}

// randomDualStore builds a dual-partitioned store with skewed random data.
func randomDualStore(t *testing.T, subjectK, objectK, n int, seed int64) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := NewDual(subjectK, objectK)
	d := st.Dict()
	for i := 0; i < n; i++ {
		st.Add(Triple{
			d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(n/4+1))),
			d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(7))),
			d.EncodeIRI(fmt.Sprintf("o%d", rng.Intn(n/8+1))),
		})
	}
	return st
}
