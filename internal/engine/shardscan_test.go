package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/store"
)

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

// drivingScan returns the compiled pipeline's driving scan, its leftmost leaf.
func drivingScan(t *testing.T, plan *QueryPlan) *scanOp {
	t.Helper()
	op := plan.buildPipeline(nil)
	for {
		switch o := op.(type) {
		case *scanOp:
			return o
		case *mergeJoinOp:
			op = o.left
		case *hashJoinOp:
			op = o.left
		case *sortOp:
			op = o.in
		default:
			t.Fatalf("no driving scan below %T", o)
		}
	}
}

func TestShardedScanMatchesFlat(t *testing.T) {
	st1, st4, p := twinStores(t, 800, 3)
	for _, src := range []string{
		"q(X, P, Y) :- t(X, P, Y)",                      // full scan
		"q(X, Z) :- t(X, p0, Y), t(Y, p1, Z)",           // chain: merged cursor + merge join
		"q(X, Z) :- t(X, p0, Y), t(Z, p1, Y)",           // value join
		"q(X) :- t(X, p0, Y), t(X, p1, Z), t(X, p2, W)", // star
		"q(X) :- t(X, p3, X)",                           // repeated variable filter
	} {
		q := p.MustParseQuery(src)
		p.ResetNames()
		flat, err := Materialize(st1, q)
		if err != nil {
			t.Fatalf("%s: flat: %v", src, err)
		}
		sharded, err := Materialize(st4, q)
		if err != nil {
			t.Fatalf("%s: sharded: %v", src, err)
		}
		if !sharded.EqualAsSet(flat) {
			t.Fatalf("%s: sharded %d rows, flat %d rows", src, sharded.Len(), flat.Len())
		}
	}
}

// TestDrivingScanMergesShards runs a driving scan over a 4-shard store under
// the three plan shapes that place it — read by a merge join, below a
// build=right hash join that leaves its order unread, and alone — against
// the INL oracle. Each drains one cursor merged over its route, so a full
// scan returns its rows in global permutation order, the same on every run.
func TestDrivingScanMergesShards(t *testing.T) {
	st, p := chainStore(t, 4)
	pred := func(a cq.Atom) string {
		s, _ := st.Dict().Decode(a[1].ConstID())
		return s.Value
	}
	type compiled struct {
		q    *cq.Query
		plan *QueryPlan
	}
	plan := func(src string, cards Cards) compiled {
		t.Helper()
		q := p.MustParseQuery(src)
		p.ResetNames()
		qp, err := PlanQueryWithStats(st, q, cards)
		if err != nil {
			t.Fatal(err)
		}
		return compiled{q, qp}
	}
	// Estimates that make the planner hash-join a cross product's output
	// with build=right, which preserves the driving scan's order unread.
	hashCards := cardsFunc(func(a cq.Atom) float64 {
		switch pred(a) {
		case "p0":
			return 30
		case "p1":
			return 40
		default:
			return 500
		}
	})
	fullScan := plan("q(X, P, Y) :- t(X, P, Y)", storeCards{st})
	for _, c := range []struct {
		name string
		compiled
		mark string
	}{
		{"merge-join chain", plan("q(X, Z) :- t(X, p0, Y), t(Y, p1, Z)", storeCards{st}), "MergeJoin"},
		{"hash join", plan("q(X, V) :- t(X, p0, Y), t(Z, p1, W), t(W, p2, V)", hashCards), "build=right"},
		{"full scan", fullScan, "shards=4/4"},
	} {
		requireExplain(t, c.plan, c.mark)
		got, err := c.plan.EvalStream(ExecOptions{}).Collect()
		if err != nil {
			t.Fatal(err)
		}
		want, err := evalQueryINL(st, c.q)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, c.name, want, got)
	}

	first, err := fullScan.plan.EvalStream(ExecOptions{}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	second, err := fullScan.plan.EvalStream(ExecOptions{}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != st.Len() || second.Len() != st.Len() {
		t.Fatalf("merged full scan returned %d and %d rows, store has %d", first.Len(), second.Len(), st.Len())
	}
	perm := drivingScan(t, fullScan.plan).spec.perm
	a, b := rowsOf(first), rowsOf(second)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("merged scan row %d differs between runs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && !permOrdered(a[i-1], a[i], perm) {
			t.Fatalf("merged scan row %d out of %v order: %v after %v", i, perm, a[i], a[i-1])
		}
	}
}

// permOrdered reports whether full-scan row a (s, p, o) sorts strictly
// before row b in the permutation's column order.
func permOrdered(a, b Row, perm store.Perm) bool {
	for _, c := range perm.Order() {
		if a[c] != b[c] {
			return a[c] < b[c]
		}
	}
	return false
}

// TestGatherMergeSkewedShards drives a merge-join chain over a wide fan-out
// where most shards hold nothing: only a handful of distinct subjects means
// most of the 16 shards are empty, and the driving scan's merged cursor must
// still deliver global order to the merge join.
func TestGatherMergeSkewedShards(t *testing.T) {
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
	requireExplain(t, plan, "MergeJoin", "shards=16/16")
	flat, err := Materialize(st1, q)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := plan.EvalStream(ExecOptions{}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !sharded.EqualAsSet(flat) {
		t.Fatalf("skewed chain: sharded %d rows, flat %d rows", sharded.Len(), flat.Len())
	}
}

// TestShardedAgainstINLRandom is the property test of sharded plans: random
// connected queries over a 4-shard store agree with the INL oracle.
func TestShardedAgainstINLRandom(t *testing.T) {
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
			t.Fatalf("trial %d: sharded pipeline vs INL mismatch for %s: %d vs %d rows",
				trial, q.Format(d), got.Len(), want.Len())
		}
	}
}

// TestConcurrentShardedQueriesDuringMutation runs merged-scan queries on one
// goroutine while another mutates the store on a disjoint predicate;
// per-shard snapshot isolation must keep every answer exact. Run with -race.
func TestConcurrentShardedQueriesDuringMutation(t *testing.T) {
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
