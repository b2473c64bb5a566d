package stats

import (
	"math/rand"
	"sync"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/store"
)

func museumStore(t testing.TB) (*store.Store, *reason.Schema) {
	t.Helper()
	st := store.New()
	st.MustAddGraph(rdf.MustParse(`
m1 rdf:type painting .
m2 rdf:type painting .
m3 rdf:type picture .
m1 isExpIn louvre .
m2 isLocatIn orsay .
m4 isExpIn prado .
`))
	sch := rdf.NewSchema()
	sch.AddSubClass("painting", "picture")
	sch.AddSubProperty("isExpIn", "isLocatIn")
	return st, reason.NewSchema(sch, st.Dict())
}

func TestStoreStatsBasics(t *testing.T) {
	st, _ := museumStore(t)
	s := NewStoreStats(st)
	typeID := st.Dict().EncodeIRI(rdf.RDFType)
	painting := st.Dict().EncodeIRI("painting")
	a := cq.Atom{cq.Var(1), cq.Const(typeID), cq.Const(painting)}
	if got := s.AtomCount(a); got != 2 {
		t.Errorf("AtomCount = %v, want 2", got)
	}
	// Cache hit path returns the same.
	if got := s.AtomCount(a); got != 2 {
		t.Errorf("cached AtomCount = %v", got)
	}
	if s.TotalTriples() != 6 {
		t.Errorf("TotalTriples = %v", s.TotalTriples())
	}
	if s.DistinctCount(store.P) != 3 {
		t.Errorf("DistinctCount(P) = %v", s.DistinctCount(store.P))
	}
	if s.AvgWidth(store.S) <= 0 {
		t.Error("AvgWidth must be positive")
	}
	if s.Store() != st {
		t.Error("Store accessor")
	}
}

func TestPatternOf(t *testing.T) {
	a := cq.Atom{cq.Var(1), cq.Const(7), cq.Var(2)}
	pat := PatternOf(a)
	if pat[0] != store.Wildcard || pat[1] != 7 || pat[2] != store.Wildcard {
		t.Errorf("PatternOf = %v", pat)
	}
}

// TestReformulatedStatsMatchSaturated is the key property of Section 4.3:
// the reformulated statistics must equal the plain statistics gathered on the
// saturated database.
func TestReformulatedStatsMatchSaturated(t *testing.T) {
	st, schema := museumStore(t)
	sat := reason.Saturate(st, schema)
	satStats := NewStoreStats(sat)
	refStats := NewReformulatedStats(st, schema)

	d := st.Dict()
	typeID := d.EncodeIRI(rdf.RDFType)
	x, y := cq.Var(1), cq.Var(2)
	atoms := []cq.Atom{
		{x, cq.Const(typeID), cq.Const(d.EncodeIRI("picture"))},
		{x, cq.Const(typeID), cq.Const(d.EncodeIRI("painting"))},
		{x, cq.Const(d.EncodeIRI("isLocatIn")), y},
		{x, cq.Const(d.EncodeIRI("isExpIn")), y},
		{x, cq.Const(typeID), y},
		{x, y, cq.Const(d.EncodeIRI("louvre"))},
		{x, y, cq.Var(3)},
	}
	for _, a := range atoms {
		want := satStats.AtomCount(a)
		got := refStats.AtomCount(a)
		if got != want {
			t.Errorf("atom %v: reformulated %v, saturated %v", a, got, want)
		}
	}
	if got, want := refStats.TotalTriples(), satStats.TotalTriples(); got != want {
		t.Errorf("TotalTriples: %v vs %v", got, want)
	}
	for col := 0; col < 3; col++ {
		if got, want := refStats.DistinctCount(col), satStats.DistinctCount(col); got != want {
			t.Errorf("DistinctCount(%d): %v vs %v", col, got, want)
		}
	}
}

// randomFixture draws a 25-triple store, an RDFS over its vocabulary and one
// atom of every shape the search can produce, all from the seed.
func randomFixture(seed int64) (*store.Store, *rdf.Schema, *reason.Schema, []cq.Atom) {
	names := []string{"a", "b", "c", "d", "e"}
	props := []string{"p1", "p2", "p3"}
	classes := []string{"k1", "k2", "k3"}
	rng := rand.New(rand.NewSource(seed))
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	st := store.New()
	d := st.Dict()
	typeID := d.EncodeIRI(rdf.RDFType)
	for i := 0; i < 25; i++ {
		if rng.Intn(3) == 0 {
			st.Add(store.Triple{d.EncodeIRI(pick(names)), typeID, d.EncodeIRI(pick(classes))})
			continue
		}
		st.Add(store.Triple{d.EncodeIRI(pick(names)), d.EncodeIRI(pick(props)), d.EncodeIRI(pick(names))})
	}
	sch := rdf.NewSchema()
	for _, add := range []func(){
		func() { sch.AddSubClass(pick(classes), pick(classes)) },
		func() { sch.AddSubProperty(pick(props), pick(props)) },
		func() { sch.AddDomain(pick(props), pick(classes)) },
		func() { sch.AddRange(pick(props), pick(classes)) },
	} {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			add()
		}
	}
	schema := reason.NewSchema(sch, d)
	x, y, z := cq.Var(1), cq.Var(2), cq.Var(3)
	konst := func(from []string) cq.Term { return cq.Const(d.EncodeIRI(pick(from))) }
	atoms := []cq.Atom{
		{x, cq.Const(typeID), konst(classes)},
		{x, konst(props), y},
		{x, cq.Const(typeID), y},
		{x, y, z},
		{x, y, konst(names)},
		{konst(names), y, z},
		{x, konst(props), x},
		{konst(names), konst(props), konst(names)},
		{konst(names), cq.Const(typeID), konst(classes)},
		{x, y, konst(classes)},
	}
	return st, sch, schema, atoms
}

// TestReformulatedStatsRandomized is the same property on random data and
// schemas, for every statistic cost.Stats serves and every atom shape the
// search can produce: reformulated = StoreStats over reason.Saturate.
func TestReformulatedStatsRandomized(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		st, sch, schema, atoms := randomFixture(seed)
		satStats := NewStoreStats(reason.Saturate(st, schema))
		refStats := NewReformulatedStats(st, schema)
		for _, a := range atoms {
			if got, want := refStats.AtomCount(a), satStats.AtomCount(a); got != want {
				t.Fatalf("seed %d atom %v: reformulated %v != saturated %v\nschema: %v",
					seed, a, got, want, sch.Statements())
			}
		}
		if got, want := refStats.TotalTriples(), satStats.TotalTriples(); got != want {
			t.Fatalf("seed %d TotalTriples: %v vs %v\nschema: %v", seed, got, want, sch.Statements())
		}
		for col := 0; col < 3; col++ {
			if got, want := refStats.DistinctCount(col), satStats.DistinctCount(col); got != want {
				t.Fatalf("seed %d DistinctCount(%d): %v vs %v\nschema: %v", seed, col, got, want, sch.Statements())
			}
		}
	}
}

// opensDuring counts the store cursors f opens.
func opensDuring(st *store.Store, f func()) int64 {
	before := st.PruneStats().Snapshot().Opens
	f()
	return st.PruneStats().Snapshot().Opens - before
}

// TestReformulatedStatsFromGlobals: one provider serves the global
// statistics to every asker and derives them once. Asked a second time, and
// from two goroutines at once, it reports the museum fixture's values — the
// fully relaxed atom's count included — and evaluates nothing over the store.
func TestReformulatedStatsFromGlobals(t *testing.T) {
	st, schema := museumStore(t)
	s := NewReformulatedStats(st, schema)
	want := Globals{Total: 10, Distinct: [3]float64{4, 3, 5}}
	if cold := opensDuring(st, func() {
		if g := s.Globals(); g != want {
			t.Fatalf("Globals = %+v, want %+v", g, want)
		}
	}); cold == 0 {
		t.Fatal("the first derivation opened no cursor; the count measures nothing")
	}

	var got [2]Globals
	warm := opensDuring(st, func() {
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = s.Globals()
			}(i)
		}
		wg.Wait()
		if n := s.AtomCount(cq.Atom{cq.Var(1), cq.Var(2), cq.Var(3)}); n != want.Total {
			t.Errorf("AtomCount(t(X,Y,Z)) = %v, want the total %v", n, want.Total)
		}
		if s.TotalTriples() != want.Total || s.DistinctCount(store.O) != want.Distinct[store.O] {
			t.Errorf("provider serves %v / %v, want %v / %v",
				s.TotalTriples(), s.DistinctCount(store.O), want.Total, want.Distinct[store.O])
		}
	})
	for i, g := range got {
		if g != want {
			t.Errorf("goroutine %d: Globals = %+v, want %+v", i, g, want)
		}
	}
	if warm != 0 {
		t.Errorf("asked again, the provider opened %d cursors for statistics it holds", warm)
	}
}

// TestConcurrentAtomCounts: one provider shared by eight goroutines, each
// asking for every statistic of the fixture in an order of its own. Every
// answer equals StoreStats over the saturated store, and the whole run opens
// exactly the cursors one serial pass over a fresh provider opens — each
// union is evaluated once, whoever asks first. Run under -race (the CI race
// gate matches the test's name).
func TestConcurrentAtomCounts(t *testing.T) {
	const workers = 8
	for seed := int64(0); seed < 20; seed++ {
		st, sch, schema, atoms := randomFixture(seed)
		satStats := NewStoreStats(reason.Saturate(st, schema))
		// Ask number i: an atom, or for i past them a column's distinct count.
		asks := len(atoms) + 3
		ask := func(s *ReformulatedStats, i int) (got, want float64) {
			if i < len(atoms) {
				return s.AtomCount(atoms[i]), satStats.AtomCount(atoms[i])
			}
			col := i - len(atoms)
			return s.DistinctCount(col), satStats.DistinctCount(col)
		}

		serial := NewReformulatedStats(st, schema)
		serialOpens := opensDuring(st, func() {
			for i := 0; i < asks; i++ {
				ask(serial, i)
			}
		})

		shared := NewReformulatedStats(st, schema)
		var wg sync.WaitGroup
		sharedOpens := opensDuring(st, func() {
			for w := 0; w < workers; w++ {
				order := rand.New(rand.NewSource(seed*workers + int64(w))).Perm(asks)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for _, i := range order {
						if got, want := ask(shared, i); got != want {
							t.Errorf("seed %d worker %d ask %d: reformulated %v != saturated %v\nschema: %v",
								seed, w, i, got, want, sch.Statements())
						}
					}
				}(w)
			}
			wg.Wait()
		})
		if serialOpens == 0 || sharedOpens != serialOpens {
			t.Errorf("seed %d: %d goroutines opened %d cursors, one serial pass opens %d",
				seed, workers, sharedOpens, serialOpens)
		}
	}
}

// TestAtomCountCacheIsBounded: a provider never holds more cells than its
// limit — a full map is replaced by an empty one — and a count is the same
// before the replacement, after it, and when the replacement made the
// provider evaluate it again.
func TestAtomCountCacheIsBounded(t *testing.T) {
	st, _, schema, atoms := randomFixture(7)
	satStats := NewStoreStats(reason.Saturate(st, schema))
	s := NewReformulatedStats(st, schema)
	if s.limit != maxCells {
		t.Fatalf("a new provider's limit is %d, want maxCells = %d", s.limit, maxCells)
	}
	s.limit = 3
	distinct := map[store.Pattern]bool{}
	for _, a := range atoms {
		distinct[PatternOf(a)] = true
	}
	if len(distinct) < 3*s.limit {
		t.Fatalf("the fixture has %d distinct patterns; the map would be replaced fewer than three times", len(distinct))
	}
	replaced := 0
	for round := 0; round < 2; round++ {
		for _, a := range atoms {
			held := s.cells
			if got, want := s.AtomCount(a), satStats.AtomCount(a); got != want {
				t.Errorf("round %d atom %v: %v, saturated %v", round, a, got, want)
			}
			if len(s.cells) > s.limit {
				t.Fatalf("round %d: %d cells held, limit %d", round, len(s.cells), s.limit)
			}
			if len(held) == s.limit && len(s.cells) == 1 {
				replaced++
			}
		}
	}
	if replaced < 4 {
		t.Errorf("the map was replaced %d times over two rounds, want at least 4", replaced)
	}
	// The first atom's cell was dropped with its map more than once; asking
	// again evaluates its union again, to the same count.
	if opens := opensDuring(st, func() { s.AtomCount(atoms[0]) }); opens == 0 {
		t.Error("a count dropped with its map was served without being evaluated again")
	}
}

func TestReformulatedStatsCacheAndWidth(t *testing.T) {
	st, schema := museumStore(t)
	s := NewReformulatedStats(st, schema)
	a := cq.Atom{cq.Var(5), cq.Const(st.Dict().EncodeIRI("isLocatIn")), cq.Var(6)}
	first := s.AtomCount(a)
	// Different variable numbers, same shape: must hit the cache/key logic.
	b := cq.Atom{cq.Var(7), cq.Const(st.Dict().EncodeIRI("isLocatIn")), cq.Var(8)}
	if got := s.AtomCount(b); got != first {
		t.Errorf("cache key not shape-invariant: %v vs %v", got, first)
	}
	if s.AvgWidth(store.O) <= 0 {
		t.Error("AvgWidth")
	}
	if s.Store() != st {
		t.Error("Store accessor")
	}
}
