package engine

import (
	"fmt"
	"strings"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// These tests pin the batch-pool satellite: once a vectorized pipeline is
// warm (owned batches allocated, hash tables built, cursors open), pulling
// further batches must not allocate at all. Each test warms the operator
// with one nextBatch call, then asserts zero allocations per subsequent
// batch with testing.AllocsPerRun.

// assertZeroAllocBatches pulls runs batches from a warm pipeline, failing if
// it runs dry or any pull allocates.
func assertZeroAllocBatches(t *testing.T, name string, runs int, pull func() bool) {
	t.Helper()
	dry := false
	allocs := testing.AllocsPerRun(runs, func() {
		if !pull() {
			dry = true
		}
	})
	if dry {
		t.Fatalf("%s: pipeline ran dry before %d steady-state batches", name, runs)
	}
	if allocs != 0 {
		t.Errorf("%s: %v allocs per steady-state batch, want 0", name, allocs)
	}
}

// TestVecScanSteadyStateZeroAlloc: a full scan's nextBatch — cursor decode
// into the reused triple buffer, bind into the owned output batch — must be
// allocation-free after the first batch.
func TestVecScanSteadyStateZeroAlloc(t *testing.T) {
	st, _ := datagen.Generate(datagen.Config{Triples: 20000, Seed: 1})
	st.Count(store.Pattern{})
	q := cq.NewParser(st.Dict()).MustParseQuery("q(X, P, Y) :- t(X, P, Y)")
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	root := plan.buildPipeline(nil)
	defer closeOp(root)
	if _, ok := root.nextBatch(); !ok { // warm: allocates the owned batch
		t.Fatal("empty scan")
	}
	// 20000 rows / 1024 per batch ≈ 19 batches; stay well inside that.
	assertZeroAllocBatches(t, "scan", 10, func() bool {
		_, ok := root.nextBatch()
		return ok
	})
}

// TestVecUnionBitsetSteadyStateZeroAlloc: a driving union leaf on the bitset
// merge — windows filled from the alternatives' pooled buffers into the
// cursor's one bitset, set bits emitted into the scan's triple buffer — must
// be allocation-free once its first window is filled.
func TestVecUnionBitsetSteadyStateZeroAlloc(t *testing.T) {
	for _, lay := range unionLayouts {
		st, p := windowStore(lay.subjectK, lay.objectK, false)
		q := p.MustParseQuery("q(X) :- t(X, rdf:type, c)")
		alts := [][]cq.Atom{typeAlts(st.Dict(), q.Atoms[0][0], cq.Var(900))}
		plan, err := planQuery(st, q, alts, storeCards{st})
		if err != nil {
			t.Fatal(err)
		}
		picks := recordMerges(t)
		root := plan.buildPipeline(nil)
		if _, ok := root.nextBatch(); !ok { // warm: fills the first window
			t.Fatal("empty union")
		}
		if *picks != [2]int{0, 1} {
			t.Fatalf("%s: leaf picked %d heap and %d bitset merges, want the bitset", lay.name, picks[0], picks[1])
		}
		// About 8,000 rows: 7 batches past the warm one; stay inside that.
		assertZeroAllocBatches(t, lay.name+" union bitset", 4, func() bool {
			_, ok := root.nextBatch()
			return ok
		})
		closeOp(root)
	}
}

// TestVecMergedShardScanSteadyStateZeroAlloc: a scan that drains one cursor
// merged over a Dual(2,2) store's two subject shards decodes through the
// store's shard-run merge and must be allocation-free after its first batch —
// on a clean store (base runs as they lie) and on a dirty one, whose shards
// merge base and overlay positions and skip tombstones.
func TestVecMergedShardScanSteadyStateZeroAlloc(t *testing.T) {
	gen, _ := datagen.Generate(datagen.Config{Triples: 20000, Seed: 1})
	st := store.NewWithDictDual(gen.Dict(), 2, 2)
	st.AddBatch(gen.Triples())
	clean := st.Clone()
	dirty := st.Clone()
	ts := gen.Triples()
	const removed = 40
	for i := 0; i < removed; i++ {
		if !dirty.Remove(ts[i*97]) {
			t.Fatalf("triple %d not in the store", i*97)
		}
	}
	d := dirty.Dict()
	for i := 0; i < 60; i++ {
		dirty.Add(store.Triple{d.EncodeIRI(fmt.Sprintf("fresh%d", i)), d.EncodeIRI("freshp"), ts[i][store.O]})
	}
	// A full cursor counts tombstoned positions as remaining: exactly the
	// removed triples are still tombstones, so no threshold merge has run
	// since the Clone and the added triples sit in the insert overlays.
	if c := dirty.NewCursor(store.SPO, store.Pattern{}); c.Remaining() != dirty.Len()+removed {
		t.Fatalf("dirty store: cursor has %d positions for %d triples, want %d tombstones",
			c.Remaining(), dirty.Len(), removed)
	}
	for _, fx := range []struct {
		name string
		st   *store.Store
	}{{"clean", clean}, {"dirty", dirty}} {
		q := cq.NewParser(fx.st.Dict()).MustParseQuery("q(X, P, Y) :- t(X, P, Y)")
		plan, err := PlanQuery(fx.st, q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.Explain(), "shards=2/2") {
			t.Fatalf("%s: scan does not span both subject shards:\n%s", fx.name, plan.Explain())
		}
		root := plan.buildPipeline(nil)
		if _, ok := root.nextBatch(); !ok {
			t.Fatalf("%s: empty scan", fx.name)
		}
		assertZeroAllocBatches(t, fx.name+" merged shard scan", 10, func() bool {
			_, ok := root.nextBatch()
			return ok
		})
		closeOp(root)
	}
}

// TestVecHashJoinSteadyStateZeroAlloc: a skewed value join (every edge meets
// every other) emits millions of rows, so chain emission spans many output
// batches; each one must reuse the join's owned batch without allocating.
func TestVecHashJoinSteadyStateZeroAlloc(t *testing.T) {
	st := store.New()
	d := st.Dict()
	hub := d.EncodeIRI("hub")
	p0, p1 := d.EncodeIRI("p0"), d.EncodeIRI("p1")
	for i := 0; i < 2000; i++ {
		st.Add(store.Triple{d.EncodeIRI(fmt.Sprintf("a%d", i)), p0, hub})
		st.Add(store.Triple{d.EncodeIRI(fmt.Sprintf("b%d", i)), p1, hub})
	}
	st.Count(store.Pattern{})
	q := cq.NewParser(d).MustParseQuery("q(X, Z) :- t(X, p0, Y), t(Z, p1, Y)")
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	root := plan.buildPipeline(nil)
	defer closeOp(root)
	if _, ok := root.nextBatch(); !ok { // warm: builds the hash table
		t.Fatal("empty join")
	}
	assertZeroAllocBatches(t, "hash join", 20, func() bool {
		_, ok := root.nextBatch()
		return ok
	})
}

// TestVecRelScanSteadyStateZeroAlloc: the rewriting executor's view-extent
// scan transposes rows into its owned batch; after the first batch that
// transpose must be allocation-free.
func TestVecRelScanSteadyStateZeroAlloc(t *testing.T) {
	head := []cq.Term{cq.Var(1), cq.Var(2)}
	rel := NewRelation(head)
	for i := 0; i < 20000; i++ {
		rel.Append(Row{dict.ID(i + 1), dict.ID(i%97 + 1)})
	}
	resolve := MapResolver(map[algebra.ViewID]*Relation{1: rel})
	root, _, err := compileRel(algebra.NewScan(1, head), resolve.extent, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOp(root)
	if _, ok := root.nextBatch(); !ok {
		t.Fatal("empty extent")
	}
	assertZeroAllocBatches(t, "rel scan", 10, func() bool {
		_, ok := root.nextBatch()
		return ok
	})
}
