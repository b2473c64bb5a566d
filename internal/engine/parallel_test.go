package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/store"
)

// forceParallel lowers the fan-out threshold for the duration of a test so
// small fixtures still exercise the exchange operators.
func forceParallel(t *testing.T) {
	t.Helper()
	old := parallelScanMinRows
	parallelScanMinRows = 0
	t.Cleanup(func() { parallelScanMinRows = old })
}

// twinStores builds the same random data into a single-shard and a 4-shard
// store over one dictionary, so answers must match exactly.
func twinStores(t testing.TB, n int, seed int64) (*store.Store, *store.Store, *cq.Parser) {
	t.Helper()
	st1 := store.New()
	st4 := store.NewWithDictSharded(st1.Dict(), 4)
	rng := rand.New(rand.NewSource(seed))
	d := st1.Dict()
	for i := 0; i < n; i++ {
		tr := store.Triple{
			d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(n/8+2))),
			d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(4))),
			d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(n/8+2))),
		}
		st1.Add(tr)
		st4.Add(tr)
	}
	return st1, st4, cq.NewParser(d)
}

func TestParallelScanMatchesSerial(t *testing.T) {
	forceParallel(t)
	st1, st4, p := twinStores(t, 800, 3)
	for _, src := range []string{
		"q(X, P, Y) :- t(X, P, Y)",                      // full parallel scan
		"q(X, Z) :- t(X, p0, Y), t(Y, p1, Z)",           // chain: ordered gather + merge join
		"q(X, Z) :- t(X, p0, Y), t(Z, p1, Y)",           // value join: hash join over exchange
		"q(X) :- t(X, p0, Y), t(X, p1, Z), t(X, p2, W)", // star
		"q(X) :- t(X, p3, X)",                           // repeated variable filter
	} {
		q := p.MustParseQuery(src)
		p.ResetNames()
		serial, err := Materialize(st1, q)
		if err != nil {
			t.Fatalf("%s: serial: %v", src, err)
		}
		par, err := Materialize(st4, q)
		if err != nil {
			t.Fatalf("%s: parallel: %v", src, err)
		}
		if !par.EqualAsSet(serial) {
			t.Fatalf("%s: parallel %d rows, serial %d rows", src, par.Len(), serial.Len())
		}
	}
}

func TestParallelPlanShapeAndExplain(t *testing.T) {
	forceParallel(t)
	_, st4, p := twinStores(t, 800, 4)

	// Chain: the pipeline merge-joins on Y, so the fan-in must be an ordered
	// gather that restores the scan's sort order.
	chain := p.MustParseQuery("q(X, Z) :- t(X, p0, Y), t(Y, p1, Z)")
	p.ResetNames()
	plan, err := PlanQuery(st4, chain)
	if err != nil {
		t.Fatal(err)
	}
	node := plan.Describe()
	ops := node.Operators()
	hasGather, hasParScan, hasMerge := false, false, false
	for _, op := range ops {
		switch op {
		case "Gather":
			hasGather = true
		case "ParallelScan":
			hasParScan = true
		case "MergeJoin":
			hasMerge = true
		}
	}
	if !hasGather || !hasParScan {
		t.Fatalf("sharded chain should gather a parallel scan, got %v\n%s", ops, plan.Explain())
	}
	out := plan.Explain()
	if !strings.Contains(out, "dop=4") {
		t.Fatalf("Explain missing dop=4:\n%s", out)
	}
	if !strings.Contains(out, "shards=4") {
		t.Fatalf("Explain missing shards=4:\n%s", out)
	}
	if hasMerge && !strings.Contains(out, "merge=[") {
		t.Fatalf("merge-join pipeline should use an ordered gather:\n%s", out)
	}

	// Two shared variables now merge on the scan's sort slot with a residual
	// equality on the second — the fan-in must still be an ordered gather.
	vj := p.MustParseQuery("q(X, Y) :- t(X, p0, Y), t(Y, p1, X)")
	p.ResetNames()
	plan, err = PlanQuery(st4, vj)
	if err != nil {
		t.Fatal(err)
	}
	out = plan.Explain()
	if !strings.Contains(out, "Gather") {
		t.Fatalf("sharded value join should gather:\n%s", out)
	}
	if !strings.Contains(out, "MergeJoin") || !strings.Contains(out, "residual=[") {
		t.Fatalf("two shared variables should merge with a residual equality:\n%s", out)
	}
	if !strings.Contains(out, "merge=[") {
		t.Fatalf("merge-join pipeline should use an ordered gather:\n%s", out)
	}
}

// TestGatherMergeSkewedShards drives the ordered gather over a wide fan-out
// where most shards hold nothing: only a handful of distinct subjects means
// most of the 16 shard streams exhaust immediately, exercising the live-set
// compaction (exhausted streams must stop being polled, and the merge must
// still restore global order).
func TestGatherMergeSkewedShards(t *testing.T) {
	forceParallel(t)
	st1 := store.New()
	st16 := store.NewWithDictSharded(st1.Dict(), 16)
	d := st1.Dict()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 600; i++ {
		tr := store.Triple{
			d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(3))), // 3 subjects, ≥13 empty shards
			d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(2))),
			d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(40))),
		}
		st1.Add(tr)
		st16.Add(tr)
	}
	p := cq.NewParser(d)
	q := p.MustParseQuery("q(X, Z) :- t(X, p0, Y), t(Y, p1, Z)")
	plan, err := PlanQuery(st16, q)
	if err != nil {
		t.Fatal(err)
	}
	if out := plan.Explain(); !strings.Contains(out, "merge=[") {
		t.Fatalf("skewed chain should still use an ordered gather:\n%s", out)
	}
	serial, err := Materialize(st1, q)
	if err != nil {
		t.Fatal(err)
	}
	par, err := plan.EvalStream(ExecOptions{}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !par.EqualAsSet(serial) {
		t.Fatalf("skewed gather: parallel %d rows, serial %d rows", par.Len(), serial.Len())
	}
}

func TestSingleShardPlansStaySerial(t *testing.T) {
	forceParallel(t)
	st1, _, p := twinStores(t, 800, 5)
	for _, src := range []string{
		"q(X, P, Y) :- t(X, P, Y)",
		"q(X, Z) :- t(X, p0, Y), t(Y, p1, Z)",
	} {
		q := p.MustParseQuery(src)
		p.ResetNames()
		plan, err := PlanQuery(st1, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range plan.Describe().Operators() {
			if op == "Gather" || op == "ParallelScan" {
				t.Fatalf("%s: single-shard store must plan serial scans, got %s\n%s",
					src, op, plan.Explain())
			}
		}
	}
}

func TestParallelBoundSubjectStaysSerial(t *testing.T) {
	// A subject-bound driving scan is routed to one shard; fanning out would
	// only add overhead, so the planner must keep it serial.
	forceParallel(t)
	_, st4, p := twinStores(t, 800, 6)
	q := p.MustParseQuery("q(Y) :- t(s1, p0, Y)")
	plan, err := PlanQuery(st4, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range plan.Describe().Operators() {
		if op == "Gather" || op == "ParallelScan" {
			t.Fatalf("subject-bound scan should stay serial:\n%s", plan.Explain())
		}
	}
}

func TestParallelThresholdRespected(t *testing.T) {
	// Without forcing, a tiny store stays below parallelScanMinRows and plans
	// serially even with shards.
	_, st4, p := twinStores(t, 100, 7)
	q := p.MustParseQuery("q(X, Z) :- t(X, p0, Y), t(Y, p1, Z)")
	plan, err := PlanQuery(st4, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range plan.Describe().Operators() {
		if op == "Gather" {
			t.Fatalf("small scan should not fan out:\n%s", plan.Explain())
		}
	}
}

// TestParallelAgainstINLRandom is the property test of the exchange
// operators: random connected queries over a 4-shard store agree with the
// legacy INL oracle.
func TestParallelAgainstINLRandom(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		st := store.NewSharded(4)
		d := st.Dict()
		for i := 0; i < 80; i++ {
			st.Add(store.Triple{
				d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(6))),
				d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(3))),
				d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(6))),
			})
		}
		p := cq.NewParser(d)
		q := randomConnectedQuery(rng, p, d, 1+rng.Intn(4))
		got, err := Materialize(st, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := evalQueryINL(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsSet(want) {
			t.Fatalf("trial %d: parallel pipeline vs INL mismatch for %s: %d vs %d rows",
				trial, q.Format(d), got.Len(), want.Len())
		}
	}
}

// TestParallelQueriesDuringMutation runs parallel-scan queries concurrently
// with store mutations on a disjoint predicate; per-shard snapshot isolation
// must keep every answer exact. Run with -race.
func TestParallelQueriesDuringMutation(t *testing.T) {
	forceParallel(t)
	st := store.NewSharded(4)
	d := st.Dict()
	for i := 0; i < 400; i++ {
		st.Add(store.Triple{
			d.EncodeIRI(fmt.Sprintf("a%d", i)),
			d.EncodeIRI("stable"),
			d.EncodeIRI(fmt.Sprintf("b%d", i%50)),
		})
	}
	p := cq.NewParser(d)
	q := p.MustParseQuery("q(X, Y) :- t(X, stable, Y)")
	want, err := Materialize(st, q)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 30; i++ {
			got, err := Materialize(st, q)
			if err != nil {
				done <- err
				return
			}
			if !got.EqualAsSet(want) {
				done <- fmt.Errorf("query %d: %d rows, want %d", i, got.Len(), want.Len())
				return
			}
		}
		done <- nil
	}()
	for i := 0; ; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		tr := store.Triple{
			d.EncodeIRI(fmt.Sprintf("churn%d", i%700)),
			d.EncodeIRI("churny"),
			d.EncodeIRI(fmt.Sprintf("v%d", i)),
		}
		if !st.Add(tr) {
			st.Remove(tr)
		}
	}
}
