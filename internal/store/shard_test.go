package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rdfviews/internal/dict"
)

// naiveModel mirrors the store with plain Go containers for equivalence
// checks under interleaved mutation.
type naiveModel struct {
	set map[Triple]struct{}
}

func newNaiveModel() *naiveModel { return &naiveModel{set: make(map[Triple]struct{})} }

func (m *naiveModel) add(t Triple) bool {
	if _, ok := m.set[t]; ok {
		return false
	}
	m.set[t] = struct{}{}
	return true
}

func (m *naiveModel) remove(t Triple) bool {
	if _, ok := m.set[t]; !ok {
		return false
	}
	delete(m.set, t)
	return true
}

func (m *naiveModel) has(t Triple) bool {
	_, ok := m.set[t]
	return ok
}

func (m *naiveModel) match(pat Pattern) map[Triple]struct{} {
	out := make(map[Triple]struct{})
	for t := range m.set {
		ok := true
		for c := 0; c < 3; c++ {
			if pat[c] != Wildcard && t[c] != pat[c] {
				ok = false
			}
		}
		if ok {
			out[t] = struct{}{}
		}
	}
	return out
}

func checkAgainstModel(t *testing.T, st *Store, m *naiveModel, pats []Pattern, ctx string) {
	t.Helper()
	if st.Len() != len(m.set) {
		t.Fatalf("%s: Len = %d, model %d", ctx, st.Len(), len(m.set))
	}
	// Both sides hold the same live set, and Contains agrees with it.
	for side, shards := range [][]*shard{st.shards, st.oshards} {
		if len(shards) == 0 {
			continue
		}
		n := 0
		for _, sh := range shards {
			for _, tr := range sh.cur.Load().liveTriples() {
				if _, ok := m.set[tr]; !ok {
					t.Fatalf("%s: side %d holds %v, not in model", ctx, side, tr)
				}
				n++
			}
		}
		if n != len(m.set) {
			t.Fatalf("%s: side %d holds %d live triples, model %d", ctx, side, n, len(m.set))
		}
	}
	for tr := range m.set {
		if !st.Contains(tr) {
			t.Fatalf("%s: Contains(%v) = false, model has it", ctx, tr)
		}
		if gone := (Triple{tr[O], tr[P], tr[S]}); st.Contains(gone) != m.has(gone) {
			t.Fatalf("%s: Contains(%v) = %v, model %v", ctx, gone, !m.has(gone), m.has(gone))
		}
	}
	for _, pat := range pats {
		want := m.match(pat)
		if got := st.Count(pat); got != len(want) {
			t.Fatalf("%s: Count(%v) = %d, model %d", ctx, pat, got, len(want))
		}
		got := st.Match(pat)
		if len(got) != len(want) {
			t.Fatalf("%s: Match(%v) = %d triples, model %d", ctx, pat, len(got), len(want))
		}
		for _, tr := range got {
			if _, ok := want[tr]; !ok {
				t.Fatalf("%s: Match(%v) returned %v not in model", ctx, pat, tr)
			}
		}
		// Cursor order across shards must stay globally sorted per perm.
		for p := SPO; p <= OPS; p++ {
			checkCursor(t, st, p, pat)
		}
	}
}

// TestShardedMatchesModelUnderChurn drives single- and multi-shard stores
// through churnAgainstModel.
func TestShardedMatchesModelUnderChurn(t *testing.T) {
	for _, k := range []int{1, 4} {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			st := NewSharded(k)
			if st.NumShards() != k {
				t.Fatalf("NumShards = %d, want %d", st.NumShards(), k)
			}
			churnAgainstModel(t, st, int64(41+k))
		})
	}
}

// churnAgainstModel drives the store through interleaved adds and removes —
// crossing the overlay-merge and densify thresholds, removing and re-adding
// the same triple on either side of both, batching duplicates — and checks
// membership, counts, matches, cursor order and (on a dual layout) that the
// two sides hold the same live set against a naive model after every phase.
// It returns the model and the patterns it checked for layout-specific
// follow-ups.
func churnAgainstModel(t *testing.T, st *Store, seed int64) (*naiveModel, []Pattern) {
	rng := rand.New(rand.NewSource(seed))
	m := newNaiveModel()
	d := st.Dict()
	subj := make([]dict.ID, 40)
	for i := range subj {
		subj[i] = d.EncodeIRI(fmt.Sprintf("s%d", i))
	}
	props := make([]dict.ID, 5)
	for i := range props {
		props[i] = d.EncodeIRI(fmt.Sprintf("p%d", i))
	}
	randTriple := func() Triple {
		return Triple{
			subj[rng.Intn(len(subj))],
			props[rng.Intn(len(props))],
			subj[rng.Intn(len(subj))],
		}
	}
	pats := []Pattern{
		{},
		{subj[0], Wildcard, Wildcard},
		{Wildcard, props[1], Wildcard},
		{Wildcard, Wildcard, subj[2]},
		{subj[3], props[0], Wildcard},
		{Wildcard, props[2], subj[4]},
		{subj[5], Wildcard, subj[6]},
	}
	add := func(tr Triple) {
		t.Helper()
		if st.Add(tr) != m.add(tr) {
			t.Fatalf("Add(%v) disagreement", tr)
		}
	}
	remove := func(tr Triple) {
		t.Helper()
		if st.Remove(tr) != m.remove(tr) {
			t.Fatalf("Remove(%v) disagreement", tr)
		}
	}

	// Phase 1: bulk inserts past the overlay threshold.
	for i := 0; i < 2*deltaMax; i++ {
		add(randTriple())
	}
	checkAgainstModel(t, st, m, pats, "after inserts")

	// Phase 2: interleaved adds/removes, enough removes to densify.
	for i := 0; i < 3*deltaMax; i++ {
		if rng.Intn(3) == 0 {
			add(randTriple())
		} else {
			remove(randTriple())
		}
	}
	checkAgainstModel(t, st, m, pats, "after churn")

	// Phase 3: re-add after delete (tombstone + re-insert of the same
	// triple must coexist in the overlays) — twice over for the first, so
	// two tombstoned copies sit beside the live one.
	var some []Triple
	for tr := range m.set {
		some = append(some, tr)
		if len(some) == 20 {
			break
		}
	}
	for _, tr := range append(some, some[0]) {
		remove(tr)
		if st.Contains(tr) {
			t.Fatalf("Contains(%v) after Remove", tr)
		}
		add(tr)
	}
	checkAgainstModel(t, st, m, pats, "after re-adds")

	// Phase 4: the same triple removed before a threshold merge and re-added
	// after it. The merge is forced where the victim lives: one batch of
	// triples sharing its subject (its subject shard) and one sharing its
	// object (its object shard), with duplicates inside the batch and of
	// stored triples.
	victim := some[1]
	sub := st.shards[st.shardOf(victim[S])]
	obj := sub
	if k := len(st.oshards); k > 0 {
		obj = st.oshards[shardOfID(victim[O], k)]
	}
	var crowd []Triple
	for i := 0; i < 4*deltaMax; i++ {
		x := d.EncodeIRI(fmt.Sprintf("x%d", i))
		crowd = append(crowd, Triple{victim[S], props[i%5], x}, Triple{x, props[i%5], victim[O]})
	}
	remove(victim)
	batch := append(append(slices.Clone(crowd), crowd[:50]...), some[2], some[3])
	if got := st.AddBatch(batch); got != len(crowd) {
		t.Fatalf("AddBatch added %d of a batch with %d distinct new triples", got, len(crowd))
	}
	for _, tr := range crowd {
		m.add(tr)
	}
	if s, o := sub.cur.Load(), obj.cur.Load(); len(s.tomb) > 0 || len(o.tomb) > 0 || len(s.delta[SPO]) > 0 || len(o.delta[OSP]) > 0 {
		t.Fatalf("a batch of %d did not merge the victim's shards", len(batch))
	}
	if st.Contains(victim) {
		t.Fatal("merge resurrected the removed victim")
	}
	add(victim)
	checkAgainstModel(t, st, m, pats, "re-add across a merge")

	// Phase 5: the same across a densify — removing the crowd leaves both of
	// the victim's shards with more holes than live triples, so the next
	// merge rewrites the triple slice and remaps every position.
	remove(victim)
	before := [2]int{len(sub.cur.Load().triples), len(obj.cur.Load().triples)}
	for _, tr := range crowd {
		remove(tr)
	}
	if s, o := len(sub.cur.Load().triples), len(obj.cur.Load().triples); s >= before[0] || o >= before[1] {
		t.Fatalf("removing the crowd did not densify: triple slices %v -> [%d %d]", before, s, o)
	}
	add(victim)
	remove(victim)
	add(victim)
	checkAgainstModel(t, st, m, pats, "re-add across a densify")

	return m, pats
}

// TestShardTriplesPartition checks the subject-hash partitioning invariants:
// the shard sections cover the store exactly, and a subject never spans two
// shards.
func TestShardTriplesPartition(t *testing.T) {
	st := randomShardedStore(t, 4, 500, 11)
	seen := make(map[Triple]int)
	subjectShard := make(map[dict.ID]int)
	total := 0
	for i := 0; i < st.NumShards(); i++ {
		for _, tr := range st.ShardTriples(i) {
			if prev, dup := seen[tr]; dup {
				t.Fatalf("triple %v in shards %d and %d", tr, prev, i)
			}
			seen[tr] = i
			if prev, ok := subjectShard[tr[S]]; ok && prev != i {
				t.Fatalf("subject %d split across shards %d and %d", tr[S], prev, i)
			}
			subjectShard[tr[S]] = i
			total++
		}
	}
	if total != st.Len() {
		t.Fatalf("shard sections hold %d triples, Len = %d", total, st.Len())
	}
	for _, tr := range st.Triples() {
		if _, ok := seen[tr]; !ok {
			t.Fatalf("Triples() returned %v missing from shard sections", tr)
		}
	}
	// Subject-bound lookups are answered by the owning shard alone.
	for tr := range seen {
		pat := Pattern{tr[S], Wildcard, Wildcard}
		if st.Count(pat) != len(st.Match(pat)) {
			t.Fatalf("subject-bound count/match mismatch for %v", tr)
		}
	}
}

func randomShardedStore(t testing.TB, k, n int, seed int64) *Store {
	t.Helper()
	st := NewSharded(k)
	rng := rand.New(rand.NewSource(seed))
	d := st.Dict()
	for st.Len() < n {
		st.Add(Triple{
			d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(n/3+1))),
			d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(8))),
			d.EncodeIRI(fmt.Sprintf("o%d", rng.Intn(n/3+1))),
		})
	}
	return st
}

// TestCursorSnapshotIsolation pins the new cursor contract: a cursor opened
// before a batch of mutations — including mutations that cross shard
// boundaries and trigger threshold merges — drains exactly the state it was
// opened against.
func TestCursorSnapshotIsolation(t *testing.T) {
	for _, k := range []int{1, 4} {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			st := randomShardedStore(t, k, 400, 7)
			d := st.Dict()
			pat := Pattern{}
			before := st.Match(pat)

			c := st.NewCursor(SPO, pat)
			// Drain a few triples, then mutate heavily: remove some of the
			// snapshot's triples, add fresh ones, force merges in every shard.
			var got []Triple
			for i := 0; i < 10; i++ {
				tr, ok := c.Next()
				if !ok {
					break
				}
				got = append(got, tr)
			}
			for i, tr := range before {
				if i%3 == 0 {
					st.Remove(tr)
				}
			}
			for i := 0; i < 2*deltaMax; i++ {
				st.Add(Triple{
					d.EncodeIRI(fmt.Sprintf("fresh-s%d", i)),
					d.EncodeIRI("fresh-p"),
					d.EncodeIRI(fmt.Sprintf("fresh-o%d", i)),
				})
			}
			for {
				tr, ok := c.Next()
				if !ok {
					break
				}
				got = append(got, tr)
			}
			if len(got) != len(before) {
				t.Fatalf("cursor drained %d triples, snapshot had %d", len(got), len(before))
			}
			want := make(map[Triple]struct{}, len(before))
			for _, tr := range before {
				want[tr] = struct{}{}
			}
			for _, tr := range got {
				if _, ok := want[tr]; !ok {
					t.Fatalf("cursor yielded %v not in its snapshot", tr)
				}
			}
		})
	}
}

// TestConcurrentReadersAndWriters runs lock-free readers (counts, matches,
// membership probes, full cursor drains) against a writer mutating all shards. The reader-side
// invariant: triples under the immutable predicate are never touched by the
// writer, so every read over it sees exactly the initial extent. On the dual
// layout the POS and object-bound reads go to the object side, whose shards
// the writes take across threshold merges: readers hold object-side
// snapshots while a merge swaps in a slice rewritten in POS order. Run with
// -race to check the snapshot handoff.
func TestConcurrentReadersAndWriters(t *testing.T) {
	for _, k := range [][2]int{{4, 0}, {4, 4}} {
		t.Run(fmt.Sprintf("dual=%d,%d", k[0], k[1]), func(t *testing.T) {
			concurrentReadersAndWriters(t, NewDual(k[0], k[1]))
		})
	}
}

func concurrentReadersAndWriters(t *testing.T, st *Store) {
	d := st.Dict()
	stable := d.EncodeIRI("stablePred")
	churn := d.EncodeIRI("churnPred")
	for i := 0; i < 300; i++ {
		st.Add(Triple{d.EncodeIRI(fmt.Sprintf("s%d", i)), stable, d.EncodeIRI(fmt.Sprintf("o%d", i))})
	}
	stablePat := Pattern{Wildcard, stable, Wildcard}
	wantCount := st.Count(stablePat)
	if wantCount != 300 {
		t.Fatalf("setup: stable count = %d", wantCount)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(6) {
				case 5:
					// An object-bound count: one object shard on the dual
					// layout.
					i := rng.Intn(300)
					if got := st.Count(Pattern{Wildcard, stable, d.EncodeIRI(fmt.Sprintf("o%d", i))}); got != 1 {
						errs <- fmt.Errorf("reader: Count(stable, o%d) = %d, want 1", i, got)
						return
					}
				case 4:
					// A POS drain: every object shard on the dual layout.
					if got := len(drain(st.NewCursor(POS, stablePat))); got != wantCount {
						errs <- fmt.Errorf("reader: POS cursor drained %d, want %d", got, wantCount)
						return
					}
				case 3:
					// Contains reads the published SPO index without the
					// shard lock: a stable triple is always there, and probing
					// the subjects the writer churns must not race with it.
					i := rng.Intn(300)
					if tr := (Triple{d.EncodeIRI(fmt.Sprintf("s%d", i)), stable, d.EncodeIRI(fmt.Sprintf("o%d", i))}); !st.Contains(tr) {
						errs <- fmt.Errorf("reader: Contains(%v) = false for a stable triple", tr)
						return
					}
					st.Contains(Triple{d.EncodeIRI(fmt.Sprintf("c0-%d", i)), churn, d.EncodeIRI(fmt.Sprintf("v%d", i))})
				case 0:
					if got := st.Count(stablePat); got != wantCount {
						errs <- fmt.Errorf("reader: Count(stable) = %d, want %d", got, wantCount)
						return
					}
				case 1:
					if got := len(st.Match(stablePat)); got != wantCount {
						errs <- fmt.Errorf("reader: Match(stable) = %d, want %d", got, wantCount)
						return
					}
					// Column statistics recompute under churn; concurrent
					// reads must never tear (regression: stats were read
					// outside the stats lock).
					if snap := st.Snapshot(); snap.DistinctCount(P) < 1 || snap.AvgWidth(P) <= 0 {
						errs <- fmt.Errorf("reader: degenerate column stats under churn")
						return
					}
				default:
					c := st.NewCursor(PSO, stablePat)
					n := 0
					for {
						if _, ok := c.Next(); !ok {
							break
						}
						n++
					}
					if n != wantCount {
						errs <- fmt.Errorf("reader: cursor drained %d, want %d", n, wantCount)
						return
					}
				}
			}
		}(int64(100 + r))
	}

	// Writer: heavy churn on the other predicate, across all shards,
	// crossing merge and densify thresholds.
	writerRng := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		var added []Triple
		for i := 0; i < 2*deltaMax; i++ {
			tr := Triple{
				d.EncodeIRI(fmt.Sprintf("c%d-%d", round, writerRng.Intn(2000))),
				churn,
				d.EncodeIRI(fmt.Sprintf("v%d", i)),
			}
			if st.Add(tr) {
				added = append(added, tr)
			}
		}
		for _, tr := range added {
			st.Remove(tr)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := st.Count(stablePat); got != wantCount {
		t.Fatalf("after churn: Count(stable) = %d, want %d", got, wantCount)
	}
	// The 300 stable triples arrived one at a time, below deltaMax per
	// shard: a sorted prefix means a threshold merge rewrote the slice.
	for i, sh := range st.oshards {
		if sh.cur.Load().sorted == 0 {
			t.Fatalf("object shard %d never crossed a threshold merge", i)
		}
	}
}

// TestCloneIsIndependent ensures a clone shares no mutable state: both sides
// mutate freely without observing each other, including past merge
// thresholds (a shared backing array would corrupt one side).
func TestCloneIsIndependent(t *testing.T) {
	st := randomShardedStore(t, 3, 300, 21)
	before := st.Len()
	cl := st.Clone()
	if cl.NumShards() != st.NumShards() || cl.Len() != before {
		t.Fatalf("clone shape: shards %d/%d len %d/%d", cl.NumShards(), st.NumShards(), cl.Len(), before)
	}
	d := st.Dict()
	for i := 0; i < deltaMax+10; i++ {
		st.Add(Triple{d.EncodeIRI(fmt.Sprintf("orig%d", i)), d.EncodeIRI("po"), d.EncodeIRI("x")})
		cl.Add(Triple{d.EncodeIRI(fmt.Sprintf("clone%d", i)), d.EncodeIRI("pc"), d.EncodeIRI("y")})
	}
	po, _ := d.LookupIRI("po")
	pc, _ := d.LookupIRI("pc")
	if got := cl.Count(Pattern{Wildcard, po, Wildcard}); got != 0 {
		t.Fatalf("clone sees %d of the original's inserts", got)
	}
	if got := st.Count(Pattern{Wildcard, pc, Wildcard}); got != 0 {
		t.Fatalf("original sees %d of the clone's inserts", got)
	}
	if st.Len() != before+deltaMax+10 || cl.Len() != before+deltaMax+10 {
		t.Fatalf("lens diverged wrong: %d vs %d", st.Len(), cl.Len())
	}
}

// TestAddBatchMatchesAddLoop checks the batched ingest path (used by graph
// loading and snapshot restore) against one-at-a-time adds, duplicates
// included.
func TestAddBatchMatchesAddLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func() (*Store, []Triple) {
		st := NewSharded(4)
		d := st.Dict()
		var ts []Triple
		for i := 0; i < 1500; i++ {
			ts = append(ts, Triple{
				d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(50))),
				d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(4))),
				d.EncodeIRI(fmt.Sprintf("o%d", rng.Intn(50))),
			})
		}
		return st, ts
	}
	a, ts := mk()
	nBatch := a.AddBatch(ts)
	b := NewWithDictSharded(a.Dict(), 4)
	nLoop := 0
	for _, tr := range ts {
		if b.Add(tr) {
			nLoop++
		}
	}
	if nBatch != nLoop {
		t.Fatalf("AddBatch added %d, Add loop %d", nBatch, nLoop)
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len: %d vs %d", a.Len(), b.Len())
	}
	for _, tr := range a.Triples() {
		if !b.Contains(tr) {
			t.Fatalf("loop store missing %v", tr)
		}
	}
	if a.AddBatch(ts) != 0 {
		t.Fatal("re-adding the batch should add nothing")
	}
}

// TestSubjectSideKeepsInsertionOrder pins what Triples and ShardTriples hand
// out on a dual layout — each subject shard's live triples in insertion order
// — across a threshold merge, removals and a re-add, and Clone's densify;
// GenerateSatisfiable samples from that order by index. The object side's
// slice is rewritten in POS order at the same merges, and must not leak into
// either.
func TestSubjectSideKeepsInsertionOrder(t *testing.T) {
	st := NewDual(2, 2)
	model := make([][]Triple, st.NumShards())
	add := func(tr Triple) {
		if st.Add(tr) {
			i := st.shardOf(tr[S])
			model[i] = append(model[i], tr)
		}
	}
	check := func(st *Store, ctx string) {
		t.Helper()
		var all []Triple
		for i := range model {
			if got := st.ShardTriples(i); !slices.Equal(got, model[i]) {
				t.Fatalf("%s: ShardTriples(%d) is not shard %d's insertion order", ctx, i, i)
			}
			all = append(all, model[i]...)
		}
		if !slices.Equal(st.Triples(), all) {
			t.Fatalf("%s: Triples() is not the shards' insertion order", ctx)
		}
		for i, sh := range st.oshards {
			s := sh.cur.Load()
			if !slices.IsSortedFunc(s.inPlace(POS), func(a, b packed) int { return permCmp(a, b, perms[POS]) }) {
				t.Fatalf("%s: object shard %d's sorted prefix is out of POS order", ctx, i)
			}
		}
	}

	// Seeded triples are in no column's order, so insertion order differs
	// from every permutation's.
	ts := seededTriples(6*deltaMax, 9)
	for _, tr := range ts[:3*deltaMax] {
		add(tr)
	}
	st.AddBatch(ts[3*deltaMax:])
	for _, tr := range ts[3*deltaMax:] {
		model[st.shardOf(tr[S])] = append(model[st.shardOf(tr[S])], tr)
	}
	for _, side := range [][]*shard{st.shards, st.oshards} {
		for i, sh := range side {
			if s := sh.cur.Load(); len(s.delta[sh.perms[0]]) == len(s.triples) {
				t.Fatalf("shard %d of a side keeping %v never merged", i, sh.perms)
			}
		}
	}
	check(st, "after a threshold merge")

	for i := 0; i < len(ts); i += 5 {
		st.Remove(ts[i])
	}
	for i := range model {
		model[i] = slices.DeleteFunc(model[i], func(tr Triple) bool { return !st.Contains(tr) })
	}
	add(ts[0]) // a re-add goes to the end of its shard's order
	check(st, "after removals")

	cl := st.Clone()
	for _, side := range [][]*shard{cl.shards, cl.oshards} {
		for _, sh := range side {
			if s := sh.cur.Load(); len(s.triples) != s.live || len(s.tomb) > 0 {
				t.Fatal("Clone did not densify")
			}
		}
	}
	check(cl, "after Clone's densify")
}
