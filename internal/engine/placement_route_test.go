package engine

import (
	"fmt"
	"strings"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// TestExplainShardsRouteAnnotation checks the shards=m/K rendering on scan
// leaves: every scan over a sharded layout shows how many of its routed
// side's partitions it opens, and flat-store plans stay unannotated.
func TestExplainShardsRouteAnnotation(t *testing.T) {
	st, p := chainStoreDual(t, 4, 8)
	explain := func(src string) string {
		q := p.MustParseQuery(src)
		p.ResetNames()
		plan, err := PlanQuery(st, q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return plan.Explain()
	}

	// Object-bound point lookup: one object shard out of 8 — the pruning the
	// dual layout exists for.
	if out := explain("q(X) :- t(X, p1, n5)"); !strings.Contains(out, "shards=1/8") {
		t.Fatalf("object-bound scan should render shards=1/8:\n%s", out)
	}
	// Subject-bound: one subject shard out of 4.
	if out := explain("q(Y) :- t(n5, p1, Y)"); !strings.Contains(out, "shards=1/4") {
		t.Fatalf("subject-bound scan should render shards=1/4:\n%s", out)
	}
	// Predicate scan: unbound on both partition columns, full subject-side
	// fan-out.
	if out := explain("q(X, Y) :- t(X, p1, Y)"); !strings.Contains(out, "shards=4/4") {
		t.Fatalf("unbound scan should render shards=4/4:\n%s", out)
	}

	// Flat stores render the historical unannotated plans.
	flatSt, fp := chainStore(t, 1)
	q := fp.MustParseQuery("q(X) :- t(X, p1, n5)")
	plan, err := PlanQuery(flatSt, q)
	if err != nil {
		t.Fatal(err)
	}
	if out := plan.Explain(); strings.Contains(out, "shards=") {
		t.Fatalf("flat-store plan grew a shards annotation:\n%s", out)
	}
}

// TestGoldenExplainDualPlacement pins the full rendered plan of a join over a
// 4×8 dual-partitioned store: the object-bound driving scan routes to one of
// the 8 object shards, the joined predicate scan fans out over the 4 subject
// shards — both visible as shards=m/K on the leaves.
func TestGoldenExplainDualPlacement(t *testing.T) {
	st, p := chainStoreDual(t, 4, 8)
	q := p.MustParseQuery("q(X) :- t(X, p1, n5), t(X, p3, W)")
	plan, err := PlanQuery(st, q)
	if err != nil {
		t.Fatal(err)
	}
	want := `Distinct
  Project [X1]
    MergeJoin [X1]  (≈6 rows)
      IndexScan t(X1, #14, #17) perm=pos prefix=2 shards=1/8 batch=1024  (≈6 rows)
      IndexScan t(X1, #16, X2) perm=pso prefix=1 shards=4/4  (≈160 rows)
`
	if got := plan.Explain(); got != want {
		t.Errorf("dual-placement plan drifted:\n--- got\n%s--- want\n%s", got, want)
	}
	assertSameAnswers(t, st, q)
}

// TestCachedTemplateReroutesOnInstantiate is the plan-cache rerouting
// regression: a template compiled over a parameter sentinel in object
// position hashes the sentinel to some arbitrary object shard, so the
// concrete shard must be re-resolved per Instantiate binding — freezing it at
// compile time would send every binding to the sentinel's shard and silently
// drop answers. Each instantiation must return exactly the concrete query's
// answers while opening exactly one of the 8 object shards.
func TestCachedTemplateReroutesOnInstantiate(t *testing.T) {
	st := store.NewDual(8, 8)
	d := st.Dict()
	pID := d.EncodeIRI("p")
	objs := make([]dict.ID, 16)
	for i := range objs {
		objs[i] = d.EncodeIRI(fmt.Sprintf("o%d", i))
	}
	for i := 0; i < 400; i++ {
		st.Add(store.Triple{
			d.EncodeIRI(fmt.Sprintf("s%d", i)),
			pID,
			objs[i%len(objs)],
		})
	}

	// The serving tier's shape: lift the object constant, substitute a
	// sentinel outside the dictionary's ID range, compile once.
	parser := cq.NewParser(d)
	concrete := parser.MustParseQuery("q(X) :- t(X, p, o0)")
	skel, params, vals := cq.LiftConstants(concrete, 0)
	if len(params) != 1 || vals[0] != objs[0] {
		t.Fatalf("lift: params=%v vals=%v", params, vals)
	}
	sentinel := dict.ID(1) << 56
	for ai := range skel.Atoms {
		for pos := range skel.Atoms[ai] {
			if skel.Atoms[ai][pos] == params[0] {
				skel.Atoms[ai][pos] = cq.Const(sentinel)
			}
		}
	}
	tmpl, err := PlanQueryParams(st, skel, map[dict.ID]dict.ID{sentinel: objs[0]})
	if err != nil {
		t.Fatal(err)
	}

	// The sentinel's shard and each concrete object's shard mostly differ —
	// require at least one binding where they do, or the test proves nothing.
	sentinelRoute := st.Placement().Route(tmpl.steps[0].spec.perm, tmpl.steps[0].spec.pat)
	diverged := false

	for i, o := range objs {
		inst := tmpl.Instantiate(nil, map[dict.ID]dict.ID{sentinel: o})
		instRoute := st.Placement().Route(inst.steps[0].spec.perm, inst.steps[0].spec.pat)
		if instRoute != sentinelRoute {
			diverged = true
		}
		before := st.PruneStats().Snapshot()
		got, err := inst.EvalStream(ExecOptions{}).Collect()
		if err != nil {
			t.Fatalf("o%d: %v", i, err)
		}
		after := st.PruneStats().Snapshot()
		if opened := after.ShardsOpened - before.ShardsOpened; opened != 1 {
			t.Fatalf("o%d: instantiated eval opened %d shards, want 1", i, opened)
		}
		want := st.Match(store.Pattern{store.Wildcard, pID, o})
		if got.Len() != len(want) {
			t.Fatalf("o%d: cached template answered %d rows, store has %d — rerouting failed",
				i, got.Len(), len(want))
		}
	}
	if !diverged {
		t.Fatal("every object hashed to the sentinel's shard; fixture proves nothing")
	}
}

// TestParallelScanOverObjectSide checks that a driving scan over a dual
// layout's multi-shard route returns every row and records one open of every
// shard of its route in the ledger.
func TestParallelScanOverObjectSide(t *testing.T) {
	_, _, dual := diffStores(t)
	p := cq.NewParser(dual.Dict())
	// Full scan: indexFor picks SPO for the all-wildcard pattern, subject
	// side; a value join's second atom can land on OSP/OPS. Use an explicit
	// object-sorted shape: merge join forces the driving scan onto the object
	// permutation only if chosen — so instead pin behaviour through the route
	// itself for each compiled scan step.
	q := p.MustParseQuery("q(X, P, Y) :- t(X, P, Y)")
	plan, err := PlanQuery(dual, q)
	if err != nil {
		t.Fatal(err)
	}
	s0 := &plan.steps[0]
	route := dual.Placement().Route(s0.spec.perm, s0.spec.pat)
	if route.Len() < 2 {
		t.Fatalf("full scan should span a multi-shard route, got %v", route)
	}
	before := dual.PruneStats().Snapshot()
	got, err := plan.EvalStream(ExecOptions{}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	after := dual.PruneStats().Snapshot()
	if got.Len() != dual.Len() {
		t.Fatalf("full scan returned %d rows, store has %d", got.Len(), dual.Len())
	}
	if opens := after.Opens - before.Opens; opens != 1 {
		t.Fatalf("full scan recorded %d ledger opens, want 1", opens)
	}
	if opened := after.ShardsOpened - before.ShardsOpened; opened != int64(route.Len()) {
		t.Fatalf("full scan recorded %d shards opened, want %d", opened, route.Len())
	}
}
