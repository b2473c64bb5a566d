package engine

import (
	"context"
	"math/rand"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/store"
)

// drainStream collects a stream into a relation (copying each slab, since
// slabs are only valid until the next pull), failing the test on error.
func drainStream(t *testing.T, label string, s *RowStream) *Relation {
	t.Helper()
	defer s.Close()
	out := NewRelation(s.Cols())
	for {
		rows, err := s.Next()
		if err != nil {
			t.Fatalf("%s: stream: %v", label, err)
		}
		if rows == nil {
			return out
		}
		if len(rows) == 0 {
			t.Fatalf("%s: stream delivered an empty slab", label)
		}
		for _, r := range rows {
			out.Append(r)
		}
	}
}

// TestEvalStreamMatchesINL drains the store-side stream slab by slab on the
// standard nine shapes over flat, 4-shard and dual stores and checks it
// against the INL oracle: same multiset, distinct or not, one shard or
// several merged, and no empty slab.
func TestEvalStreamMatchesINL(t *testing.T) {
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
	flat, sharded, dual := diffStores(t)
	for layout, st := range map[string]*store.Store{"flat": flat, "4-shard": sharded, "4x4-dual": dual} {
		p := cq.NewParser(st.Dict())
		for name, src := range shapes {
			q := p.MustParseQuery(src)
			p.ResetNames()
			plan, err := PlanQuery(st, q)
			if err != nil {
				t.Fatalf("%s/%s: plan: %v", layout, name, err)
			}
			want, err := evalQueryINL(st, q)
			if err != nil {
				t.Fatalf("%s/%s: INL oracle: %v", layout, name, err)
			}
			got := drainStream(t, layout+"/"+name, plan.EvalStream(ExecOptions{Ctx: context.Background()}))
			sameRows(t, layout+"/"+name+" streamed", want, got)
		}
	}
}

// TestExecuteStreamMatchesRef drains the rewriting stream slab by slab on the
// plan-shape matrix and checks it against the reference interpreter.
func TestExecuteStreamMatchesRef(t *testing.T) {
	views, plans := rewriteMatrix(19)
	for name, plan := range plans {
		s, err := ExecuteStream(plan, MapResolver(views), ExecOptions{Ctx: context.Background()})
		if err != nil {
			t.Fatalf("%s: stream compile: %v", name, err)
		}
		sameRows(t, name+" streamed", refExecute(t, plan, views), drainStream(t, name, s))
	}
}

// TestUnionProjectStreams covers the serving tier's stream combinators:
// cross-member dedup in UnionStreams and column permutation in ProjectStream.
func TestUnionProjectStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x1, x2 := cq.Var(1), cq.Var(2)
	views := map[algebra.ViewID]*Relation{
		1: randomExtent(rng, []cq.Term{x1, x2}, 600, 60),
		2: randomExtent(rng, []cq.Term{x1, x2}, 600, 60),
	}
	scan := func(id algebra.ViewID) algebra.Plan {
		return algebra.NewProject(algebra.NewScan(id, []cq.Term{x1, x2}), []cq.Term{x1, x2})
	}
	want, err := execute(algebra.NewUnion(scan(1), scan(2)), MapResolver(views), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id algebra.ViewID) *RowStream {
		s, err := ExecuteStream(scan(id), MapResolver(views), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	u, err := UnionStreams([]*RowStream{mk(1), mk(2)}, 64)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "union streams", want, drainStream(t, "union", u))

	// A union of one is its member, unchanged: it yields the member's rows,
	// and closing it mid-stream closes the member.
	only := mk(1)
	one, err := UnionStreams([]*RowStream{only}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if one != only {
		t.Fatal("a one-member union wraps its member")
	}
	if _, err := one.Next(); err != nil {
		t.Fatal(err)
	}
	one.Close()
	if only.root != nil {
		t.Fatal("closing a one-member union left its member open")
	}
	wantOne, err := refProject(views[1], []cq.Term{x1, x2})
	if err != nil {
		t.Fatal(err)
	}
	u1, err := UnionStreams([]*RowStream{mk(1)}, 64)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "one-member union", wantOne, drainStream(t, "one-member union", u1))

	// Permuting an already-distinct stream preserves the row count and moves
	// the columns.
	p, err := ProjectStream(mk(1), []cq.Term{x2, x1})
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, "project", p)
	wantPerm, err := refProject(views[1], []cq.Term{x2, x1})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "project stream", wantPerm, got)

	if _, err := ProjectStream(mk(1), []cq.Term{cq.Var(9)}); err == nil {
		t.Fatal("projection onto an unknown column should fail")
	}
}

// TestExecCancelContext checks that a canceled context aborts the drain —
// collected or pulled slab by slab, store-side and rewriting — with
// ctx.Err(), never a truncated relation, and that the engine's cancellation
// checkpoints register the stop.
func TestExecCancelContext(t *testing.T) {
	flat, _, _ := diffStores(t)
	p := cq.NewParser(flat.Dict())
	q := p.MustParseQuery("q(X, P, Y) :- t(X, P, Y)")
	plan, err := PlanQuery(flat, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before execution starts

	before := CancelStops()
	if _, err := plan.EvalStream(ExecOptions{Ctx: ctx}).Collect(); err != context.Canceled {
		t.Fatalf("eval under canceled ctx: got %v, want context.Canceled", err)
	}
	if CancelStops() <= before {
		t.Fatal("cancellation checkpoints did not register the stop")
	}

	rng := rand.New(rand.NewSource(3))
	x1, x2 := cq.Var(1), cq.Var(2)
	views := map[algebra.ViewID]*Relation{1: randomExtent(rng, []cq.Term{x1, x2}, 5000, 100)}
	rp := algebra.NewProject(algebra.NewScan(1, []cq.Term{x1, x2}), []cq.Term{x1, x2})
	if _, err := execute(rp, MapResolver(views), ExecOptions{Ctx: ctx}); err != context.Canceled {
		t.Fatalf("rewriting execute under canceled ctx: got %v, want context.Canceled", err)
	}

	// Mid-stream cancellation: pull one slab, cancel, and the stream must
	// terminate with the context error instead of running to completion.
	ctx2, cancel2 := context.WithCancel(context.Background())
	s := plan.EvalStream(ExecOptions{Ctx: ctx2})
	if _, err := s.Next(); err != nil {
		t.Fatalf("first slab: %v", err)
	}
	cancel2()
	for {
		rows, err := s.Next()
		if err == context.Canceled {
			break
		}
		if rows == nil {
			t.Fatal("stream hit EOF without surfacing the canceled context")
		}
	}
	s.Close()
}

// TestNextAfterCloseReturnsErrStreamClosed: a stream closed before its end
// answers every later Next with ErrStreamClosed and no rows, without
// re-entering the operators Close released — a rewriting's hash join and a
// store plan's merge join. A drained stream keeps answering EOF.
func TestNextAfterCloseReturnsErrStreamClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	views := map[algebra.ViewID]*Relation{
		1: randomExtent(rng, []cq.Term{x1, x2}, 3000, 50),
		2: randomExtent(rng, []cq.Term{x2, x3}, 3000, 50),
	}
	join := algebra.NewJoin(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3}))
	hashJoin, err := ExecuteStream(join, MapResolver(views), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := hashJoin.root.(*hashJoinOp); !ok {
		t.Fatalf("rewriting join compiled to %T, want a hash join", hashJoin.root)
	}
	flat, _, _ := diffStores(t)
	plan, err := PlanQuery(flat, cq.NewParser(flat.Dict()).MustParseQuery(joinShapes["Chain3"]))
	if err != nil {
		t.Fatal(err)
	}
	requireExplain(t, plan, "MergeJoin")
	for name, s := range map[string]*RowStream{"hash-join": hashJoin, "merge-join": plan.EvalStream(ExecOptions{})} {
		if rows, err := s.Next(); err != nil || rows == nil {
			t.Fatalf("%s: first slab: %v rows, %v", name, len(rows), err)
		}
		s.Close()
		for i := 0; i < 2; i++ {
			if rows, err := s.Next(); rows != nil || err != ErrStreamClosed {
				t.Fatalf("%s: Next after Close = %d rows, %v; want none, ErrStreamClosed", name, len(rows), err)
			}
		}
	}

	drained, err := ExecuteStream(join, MapResolver(views), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	drainStream(t, "drained", drained)
	if rows, err := drained.Next(); rows != nil || err != nil {
		t.Fatalf("Next after EOF and Close = %d rows, %v; want EOF", len(rows), err)
	}
}

// TestCombinatorsRejectPulledStreams: UnionStreams and ProjectStream build one
// operator tree over their inputs' trees, so an input that was already pulled
// (or closed) has no whole tree to give and is refused, and left usable.
func TestCombinatorsRejectPulledStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x1, x2 := cq.Var(1), cq.Var(2)
	views := map[algebra.ViewID]*Relation{1: randomExtent(rng, []cq.Term{x1, x2}, 3000, 60)}
	mk := func() *RowStream {
		s, err := ExecuteStream(algebra.NewScan(1, []cq.Term{x1, x2}), MapResolver(views), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	pulled := mk()
	if _, err := pulled.Next(); err != nil {
		t.Fatal(err)
	}
	fresh := mk()
	if _, err := UnionStreams([]*RowStream{fresh, pulled}, 64); err == nil {
		t.Fatal("UnionStreams accepted a pulled member")
	}
	if _, err := UnionStreams([]*RowStream{pulled}, 64); err == nil {
		t.Fatal("UnionStreams accepted a pulled one-member union")
	}
	if _, err := ProjectStream(pulled, []cq.Term{x2, x1}); err == nil {
		t.Fatal("ProjectStream accepted a pulled stream")
	}
	closed := mk()
	closed.Close()
	if _, err := ProjectStream(closed, []cq.Term{x2, x1}); err == nil {
		t.Fatal("ProjectStream accepted a closed stream")
	}
	if rows, err := fresh.Next(); err != nil || rows == nil {
		t.Fatalf("a refused union consumed its unpulled member: %d rows, %v", len(rows), err)
	}
}
