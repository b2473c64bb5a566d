package stats

import (
	"math/rand"
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

// TestReformulatedStatsRandomized is the same property on random data and
// schemas, for every statistic cost.Stats serves and every atom shape the
// search can produce: reformulated = StoreStats over reason.Saturate.
func TestReformulatedStatsRandomized(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	props := []string{"p1", "p2", "p3"}
	classes := []string{"k1", "k2", "k3"}
	for seed := int64(0); seed < 120; seed++ {
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

		satStats := NewStoreStats(reason.Saturate(st, schema))
		refStats := NewReformulatedStats(st, schema)
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

// TestReformulatedStatsFromGlobals: a provider built from another's globals
// serves the same statistics as one that derives them — the fully relaxed
// atom included — without evaluating anything over the store to do so.
func TestReformulatedStatsFromGlobals(t *testing.T) {
	st, schema := museumStore(t)
	cold := NewReformulatedStats(st, schema)
	g := cold.Globals()
	if want := (Globals{Total: 10, Distinct: [3]float64{4, 3, 5}}); g != want {
		t.Fatalf("Globals = %+v, want %+v", g, want)
	}

	before := st.PruneStats().Snapshot().Opens
	warm := NewReformulatedStatsFrom(st, schema, g)
	if warm.Globals() != g {
		t.Errorf("seeded provider's Globals = %+v, want %+v", warm.Globals(), g)
	}
	if got := warm.AtomCount(cq.Atom{cq.Var(1), cq.Var(2), cq.Var(3)}); got != g.Total {
		t.Errorf("seeded AtomCount(t(X,Y,Z)) = %v, want the total %v", got, g.Total)
	}
	if warm.TotalTriples() != g.Total || warm.DistinctCount(store.O) != g.Distinct[store.O] {
		t.Errorf("seeded provider serves %v / %v, want %v / %v",
			warm.TotalTriples(), warm.DistinctCount(store.O), g.Total, g.Distinct[store.O])
	}
	if opens := st.PruneStats().Snapshot().Opens - before; opens != 0 {
		t.Errorf("seeded provider opened %d cursors for statistics it was given", opens)
	}
	// Everything else is still derived on demand, and agrees.
	a := cq.Atom{cq.Var(1), cq.Const(st.Dict().EncodeIRI("isLocatIn")), cq.Var(2)}
	if got, want := warm.AtomCount(a), cold.AtomCount(a); got != want {
		t.Errorf("AtomCount(%v) = %v, cold provider %v", a, got, want)
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
