package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// Executor-vs-reference differentials: the batch operators must reproduce
// their reference's exact row multiset on every shape and store layout.
// Store-side plans are checked against evalQueryINL (inl.go), rewriting plans
// against refExecute (ref_test.go); neither shares code with the operators.

// randomExtent builds an n-row extent with values drawn from a bounded
// domain, so joins match and unions overlap.
func randomExtent(rng *rand.Rand, cols []cq.Term, n, domain int) *Relation {
	r := NewRelation(cols)
	for i := 0; i < n; i++ {
		row := make(Row, len(cols))
		for j := range row {
			row[j] = dict.ID(rng.Intn(domain) + 1)
		}
		r.Append(row)
	}
	return r
}

// relOf builds a relation holding the rows, in order.
func relOf(cols []cq.Term, rows ...Row) *Relation {
	r := NewRelation(cols)
	for _, row := range rows {
		r.Append(row)
	}
	return r
}

// rowsOf widens every row of r, in order.
func rowsOf(r *Relation) []Row {
	out := make([]Row, r.Len())
	for i := range out {
		out[i] = r.Row(i, nil)
	}
	return out
}

// sameRows asserts two relations hold exactly the same rows with the same
// multiplicities (order-insensitive) — stronger than EqualAsSet, because an
// operator must reproduce its reference's multiset, not just its distinct
// rows.
func sameRows(t *testing.T, label string, want, got *Relation) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: want %d rows, got %d rows", label, want.Len(), got.Len())
	}
	a, b := rowsOf(want), rowsOf(got)
	for _, rows := range [][]Row{a, b} {
		slices.SortFunc(rows, func(x, y Row) int { return slices.Compare(x, y) })
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("%s: row %d differs: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// diffStores builds the flat, 4-shard and 4×4 dual-partitioned variants of
// the standard 20k-triple dataset, with a few self-loop edges added so the
// repeated-variable shape has matches.
func diffStores(t *testing.T) (flat, sharded, dual *store.Store) {
	t.Helper()
	flat, _ = datagen.Generate(datagen.Config{Triples: 20000, Seed: 3})
	d := flat.Dict()
	p0 := d.EncodeIRI(datagen.PropName(0))
	for i := 0; i < 50; i++ {
		n := d.EncodeIRI(fmt.Sprintf("self%d", i))
		flat.Add(store.Triple{n, p0, n})
	}
	flat.Count(store.Pattern{})
	sharded = store.NewWithDictSharded(d, 4)
	sharded.AddBatch(flat.Triples())
	sharded.Count(store.Pattern{})
	dual = store.NewWithDictDual(d, 4, 4)
	dual.AddBatch(flat.Triples())
	dual.Count(store.Pattern{})
	return flat, sharded, dual
}

// joinShapes are the join-heavy query shapes of the store-side differentials:
// chains (merge-join friendly), stars (all joins on one variable), a mixed
// star+chain multi-join, and a value join with no shared sort order.
var joinShapes = map[string]string{
	"Chain3": "q(X, Z) :- t(X, " + datagen.PropName(0) + ", Y), t(Y, " + datagen.PropName(1) + ", Z)",
	"Chain4": "q(X, W) :- t(X, " + datagen.PropName(0) + ", Y), t(Y, " + datagen.PropName(1) + ", Z), t(Z, " + datagen.PropName(2) + ", W)",
	"Star3": "q(X) :- t(X, " + datagen.PropName(0) + ", Y), t(X, " + datagen.PropName(1) + ", Z), " +
		"t(X, rdf:type, " + datagen.ClassName(0) + ")",
	"Star4": "q(X, Y, Z, W) :- t(X, " + datagen.PropName(0) + ", Y), t(X, " + datagen.PropName(1) + ", Z), " +
		"t(X, " + datagen.PropName(2) + ", W)",
	"MultiJoin5": "q(X, W) :- t(X, rdf:type, " + datagen.ClassName(0) + "), t(X, " + datagen.PropName(0) + ", Y), " +
		"t(X, " + datagen.PropName(1) + ", Z), t(Y, " + datagen.PropName(2) + ", W), t(W, " + datagen.PropName(3) + ", V)",
	"ValueJoin": "q(X, Z) :- t(X, " + datagen.PropName(0) + ", Y), t(Z, " + datagen.PropName(1) + ", Y)",
}

// standardData loads the standard 20k-triple dataset (seed 1) into a k-shard
// store.
func standardData(t testing.TB, k int) (*store.Store, *cq.Parser) {
	t.Helper()
	st, _ := datagen.Generate(datagen.Config{Triples: 20000, Seed: 1})
	if k == 1 {
		st.Count(store.Pattern{})
		return st, cq.NewParser(st.Dict())
	}
	sh := store.NewWithDictSharded(st.Dict(), k)
	sh.AddBatch(st.Triples())
	sh.Count(store.Pattern{})
	return sh, cq.NewParser(sh.Dict())
}

// plannerChainFixture is a chain dataset with a sparse first hop (300 p0
// edges) into large but selective p1/p2/p3 relations (20000 edges each,
// out-degree ~1), the shape where the sort-break plan — sort the small
// pipeline, merge against the big already-sorted predicate index — beats
// cascading hash joins that build a 20000-entry table per hop.
func plannerChainFixture(t testing.TB) (*store.Store, *cq.Query) {
	t.Helper()
	st := store.New()
	d := st.Dict()
	rng := rand.New(rand.NewSource(11))
	n := func(i int) dict.ID { return d.EncodeIRI(fmt.Sprintf("n%d", i)) }
	for i := 0; i < 300; i++ {
		st.Add(store.Triple{d.EncodeIRI(fmt.Sprintf("a%d", i)), d.EncodeIRI("p0"), n(rng.Intn(20000))})
	}
	for _, pred := range []string{"p1", "p2", "p3"} {
		pid := d.EncodeIRI(pred)
		for i := 0; i < 20000; i++ {
			st.Add(store.Triple{n(rng.Intn(20000)), pid, n(rng.Intn(20000))})
		}
	}
	q := cq.NewParser(d).MustParseQuery(
		"q(X, V) :- t(X, p0, Y), t(Y, p1, Z), t(Z, p2, W), t(W, p3, V)")
	return st, q
}

// rewriteUnionFixture materializes atomic predicate views from the standard
// dataset in a 4-shard store — the deployment shape of the answering tier:
// workload queries run against view extents only. It returns the extents plus
// a 4-branch union of hash joins (one branch per predicate view, all joining
// the shared second-hop view v9 on Y).
func rewriteUnionFixture(t testing.TB) (map[algebra.ViewID]*Relation, *algebra.Union) {
	t.Helper()
	st, p := standardData(t, 4)
	views := make(map[algebra.ViewID]*Relation)
	x, y, z := cq.Var(1), cq.Var(2), cq.Var(3)
	for i := 0; i < 4; i++ {
		q := p.MustParseQuery(fmt.Sprintf("q(X, Y) :- t(X, %s, Y)", datagen.PropName(i)))
		p.ResetNames()
		rel, err := Materialize(st, q)
		if err != nil {
			t.Fatal(err)
		}
		rel.Cols = []cq.Term{x, y}
		views[algebra.ViewID(i+1)] = rel
	}
	shared := p.MustParseQuery(fmt.Sprintf("q(Y, Z) :- t(Y, %s, Z)", datagen.PropName(4)))
	p.ResetNames()
	rel, err := Materialize(st, shared)
	if err != nil {
		t.Fatal(err)
	}
	rel.Cols = []cq.Term{y, z}
	views[9] = rel

	branches := make([]algebra.Plan, 4)
	for i := range branches {
		branches[i] = algebra.NewJoin(
			algebra.NewScan(algebra.ViewID(i+1), []cq.Term{x, y}),
			algebra.NewScan(9, []cq.Term{y, z}),
		)
	}
	return views, algebra.NewUnion(branches...)
}

// buildSideFixture is a join whose left input is a small slice of an extent
// and whose right input is a full extent ~20× larger: the cost-chosen
// executor builds the small left side and streams the large extent through
// as the probe.
func buildSideFixture(views map[algebra.ViewID]*Relation) (map[algebra.ViewID]*Relation, *algebra.Join) {
	x, y := cq.Var(1), cq.Var(2)
	small := relOf([]cq.Term{x, y}, rowsOf(views[1])[:min(100, views[1].Len())]...)
	return map[algebra.ViewID]*Relation{1: small, 2: views[9]}, algebra.NewJoin(
		algebra.NewScan(1, []cq.Term{x, y}),
		algebra.NewScan(2, []cq.Term{y, cq.Var(3)}),
	)
}

// skewedHashJoinFixture is a value join over hub-skewed data (500 edges per
// side over 20 shared hubs, ~12k output rows). The extra p2 atom keeps the
// pipeline sorted on X, so the planner hash-joins the final skewed atom: long
// collision chains exercise the batched probe and chain emission across
// output batches.
func skewedHashJoinFixture() (*store.Store, *cq.Query) {
	st := store.New()
	d := st.Dict()
	p0, p1, p2 := d.EncodeIRI("p0"), d.EncodeIRI("p1"), d.EncodeIRI("p2")
	hub := func(i int) dict.ID { return d.EncodeIRI(fmt.Sprintf("hub%d", i)) }
	for i := 0; i < 500; i++ {
		a := d.EncodeIRI(fmt.Sprintf("a%d", i))
		st.Add(store.Triple{a, p0, hub(i % 20)})
		st.Add(store.Triple{d.EncodeIRI(fmt.Sprintf("b%d", i)), p1, hub(i % 20)})
		st.Add(store.Triple{a, p2, d.EncodeIRI(fmt.Sprintf("c%d", i))})
	}
	st.Count(store.Pattern{})
	return st, cq.NewParser(d).MustParseQuery("q(X, Z, D) :- t(X, p0, Y), t(X, p2, D), t(Z, p1, Y)")
}

// TestBatchEvalMatchesINL is the store-side matrix: nine query shapes (scans,
// chains, stars, a five-atom mix, a value join, a self-loop) over the flat,
// 4-shard and 4×4 dual-partitioned stores plus the flat and 4-shard standard
// datasets, pipeline vs INL oracle, multiset-exact. The sharded runs drive
// merged driving scans over both partition sides on the dual layout. The planner-chain and skewed-hash-join fixtures add the sort-break
// and long-collision-chain shapes.
func TestBatchEvalMatchesINL(t *testing.T) {
	shapes := map[string]string{
		"full-scan":  "q(X, P, Y) :- t(X, P, Y)",
		"pred-scan":  "q(X, Y) :- t(X, " + datagen.PropName(0) + ", Y)",
		"chain3":     joinShapes["Chain3"],
		"chain4":     joinShapes["Chain4"],
		"star3":      joinShapes["Star3"],
		"star4":      joinShapes["Star4"],
		"multijoin5": joinShapes["MultiJoin5"],
		"valuejoin":  joinShapes["ValueJoin"],
		"self-loop":  "q(X) :- t(X, " + datagen.PropName(0) + ", X)",
	}
	check := func(label string, st *store.Store, q *cq.Query) *Relation {
		t.Helper()
		want, err := evalQueryINL(st, q)
		if err != nil {
			t.Fatalf("%s: INL oracle: %v", label, err)
		}
		got, err := Materialize(st, q)
		if err != nil {
			t.Fatalf("%s: pipeline: %v", label, err)
		}
		sameRows(t, label, want, got)
		return got
	}
	flat, sharded, dual := diffStores(t)
	stdFlat, _ := standardData(t, 1)
	std4, _ := standardData(t, 4)
	for layout, st := range map[string]*store.Store{"flat": flat, "4-shard": sharded, "4x4-dual": dual,
		"standard-flat": stdFlat, "standard-4-shard": std4} {
		p := cq.NewParser(st.Dict())
		for name, src := range shapes {
			q := p.MustParseQuery(src)
			p.ResetNames()
			got := check(layout+"/"+name, st, q)
			if name == "self-loop" && st == flat && got.Len() == 0 {
				t.Fatalf("%s/self-loop: fixture lost its self edges", layout)
			}
		}
	}
	st, q := plannerChainFixture(t)
	check("planner-chain4", st, q)
	st, q = skewedHashJoinFixture()
	check("skewed-hash-join", st, q)
}

// rewriteMatrix is the rewriting-executor fixture matrix: four random extents
// (drawn from seed) and the nine plan shapes the executor distinguishes — joins
// in both orientations, with an explicit condition, nested and over a filter;
// a deduplicating projection over a filtered scan; unions of scans and of
// joins, bare and projected.
func rewriteMatrix(seed int64) (map[algebra.ViewID]*Relation, map[string]algebra.Plan) {
	rng := rand.New(rand.NewSource(seed))
	x1, x2, x3, x4 := cq.Var(1), cq.Var(2), cq.Var(3), cq.Var(4)
	views := map[algebra.ViewID]*Relation{
		1: randomExtent(rng, []cq.Term{x1, x2}, 900, 140),
		2: randomExtent(rng, []cq.Term{x2, x3}, 700, 140),
		3: randomExtent(rng, []cq.Term{x1, x2}, 400, 140),
		4: randomExtent(rng, []cq.Term{x3, x4}, 500, 140),
	}
	s1 := func() *algebra.Scan { return algebra.NewScan(1, []cq.Term{x1, x2}) }
	s2 := func() *algebra.Scan { return algebra.NewScan(2, []cq.Term{x2, x3}) }
	s3 := func() *algebra.Scan { return algebra.NewScan(3, []cq.Term{x1, x2}) }
	s4 := func() *algebra.Scan { return algebra.NewScan(4, []cq.Term{x3, x4}) }
	c := views[1].At(0, 0) // a constant that actually occurs
	return views, map[string]algebra.Plan{
		"join":          algebra.NewJoin(s1(), s2()),
		"join-flipped":  algebra.NewJoin(s2(), s1()),
		"join-cond":     algebra.NewJoin(s1(), algebra.NewScan(4, []cq.Term{x3, x4}), algebra.Cond{Left: x2, Right: x3}),
		"deep-join":     algebra.NewJoin(algebra.NewJoin(s1(), s2()), s4()),
		"filter-join":   algebra.NewJoin(algebra.NewSelect(s1(), algebra.Cond{Left: x1, Right: cq.Const(c)}), s2()),
		"project":       algebra.NewProject(algebra.NewSelect(s1(), algebra.Cond{Left: x1, Right: x2}), []cq.Term{x2}),
		"union":         algebra.NewUnion(s1(), s3()),
		"union-of-join": algebra.NewUnion(algebra.NewJoin(s1(), s2()), algebra.NewJoin(s3(), s2()), algebra.NewJoin(s1(), s2())),
		"project-union": algebra.NewProject(algebra.NewUnion(algebra.NewJoin(s1(), s2()), algebra.NewJoin(s3(), s2())), []cq.Term{x1, x3}),
	}
}

// TestBatchExecuteMatchesRef is the rewriting-executor matrix: the nine plan
// shapes of rewriteMatrix plus the standard dataset's union of joins and
// skewed build-side join, run against the reference interpreter,
// multiset-exact.
func TestBatchExecuteMatchesRef(t *testing.T) {
	views, plans := rewriteMatrix(19)
	check := func(name string, plan algebra.Plan, views map[algebra.ViewID]*Relation) {
		t.Helper()
		got, err := execute(plan, MapResolver(views), ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameRows(t, name, refExecute(t, plan, views), got)
	}
	for name, plan := range plans {
		check(name, plan, views)
	}
	stdViews, union := rewriteUnionFixture(t)
	check("standard-union", union, stdViews)
	sviews, join := buildSideFixture(stdViews)
	check("standard-build-side", join, sviews)
}

// TestBatchAbandonedPipeline closes partially drained pipelines — a
// rewriting and a sharded store-side scan — and checks that closing
// twice is safe.
func TestBatchAbandonedPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	views := map[algebra.ViewID]*Relation{
		1: randomExtent(rng, []cq.Term{x1, x2}, 2000, 50),
		2: randomExtent(rng, []cq.Term{x2, x3}, 2000, 50),
	}
	plan := algebra.NewUnion(
		algebra.NewJoin(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3})),
		algebra.NewJoin(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3})),
	)
	root, _, err := compileRel(plan, MapResolver(views).extent, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := root.nextBatch(); !ok {
		t.Fatal("no first batch")
	}
	closeOp(root)
	closeOp(root) // closing twice is safe

	// Store-side: abandon a sharded scan mid-stream.
	_, sharded, _ := diffStores(t)
	q := cq.NewParser(sharded.Dict()).MustParseQuery("q(X, P, Y) :- t(X, P, Y)")
	qp, err := PlanQuery(sharded, q)
	if err != nil {
		t.Fatal(err)
	}
	vroot := qp.buildPipeline(nil)
	if _, ok := vroot.nextBatch(); !ok {
		t.Fatal("no first batch from sharded scan")
	}
	closeOp(vroot)
	closeOp(vroot)
}
