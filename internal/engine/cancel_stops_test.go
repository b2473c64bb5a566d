package engine

import (
	"context"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/store"
)

// TestCancelStopsAccounting pins the CancelStops contract per operator type:
// a cancelled execution bumps the counter exactly once, no matter which
// checkpoint observes the cancellation first or how many operators share the
// execution's interrupt. Each case drives one pipeline shape — chosen, and
// where possible asserted via Explain, to place a specific operator type on
// the cancellation path — pulls at least one batch/slab, cancels, drains to
// termination, and checks that the execution surfaced context.Canceled and
// advanced CancelStops by exactly 1.
//
// Not parallel: cancelStops is process-wide.
func TestCancelStopsAccounting(t *testing.T) {
	flat, sharded, _ := diffStores(t)
	fullScan := "q(X, P, Y) :- t(X, P, Y)"
	chain3 := joinShapes["Chain3"]

	// plan compiles src and asserts the markers appear in the explain output,
	// so each case keeps covering the operator it names even if the cost
	// model's choices drift.
	plan := func(t *testing.T, shardedStore bool, src string, marks ...string) *QueryPlan {
		t.Helper()
		st := flat
		if shardedStore {
			st = sharded
		}
		p := cq.NewParser(st.Dict())
		qp, err := PlanQuery(st, p.MustParseQuery(src))
		if err != nil {
			t.Fatal(err)
		}
		requireExplain(t, qp, marks...)
		return qp
	}

	// Hash-join shapes need skewed estimates (chain data plans merge joins
	// otherwise); reuse the pinned build-side fixtures from the planner tests.
	chainSt, chainP := chainStore(t, 1)
	pred := func(a cq.Atom) string {
		s, _ := chainSt.Dict().Decode(a[1].ConstID())
		return s.Value
	}
	hashLeftPlan := func(t *testing.T) *QueryPlan {
		t.Helper()
		q := chainP.MustParseQuery("q(X, V) :- t(X, p0, Y), t(Y, p1, Z), t(Z, p2, W), t(W, p3, V)")
		chainP.ResetNames()
		est := cardsFunc(func(a cq.Atom) float64 {
			switch pred(a) {
			case "p0":
				return 128
			case "p1":
				return 4000
			case "p2":
				return 2200
			default:
				return 3000
			}
		})
		qp, err := PlanQueryWithStats(chainSt, q, est)
		if err != nil {
			t.Fatal(err)
		}
		requireExplain(t, qp, "build=left")
		return qp
	}
	hashRightPlan := func(t *testing.T) *QueryPlan {
		t.Helper()
		q := chainP.MustParseQuery("q(X, V) :- t(X, p0, Y), t(Z, p1, W), t(W, p2, V)")
		chainP.ResetNames()
		est := cardsFunc(func(a cq.Atom) float64 {
			switch pred(a) {
			case "p0":
				return 30
			case "p1":
				return 40
			default:
				return 500
			}
		})
		qp, err := PlanQueryWithStats(chainSt, q, est)
		if err != nil {
			t.Fatal(err)
		}
		requireExplain(t, qp, "CrossProduct", "build=right")
		return qp
	}

	// Rewriting-tier fixtures: extents big enough that every stream spans
	// several slabs, so a mid-stream cancel always leaves live work.
	rng := rand.New(rand.NewSource(11))
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	views := map[algebra.ViewID]*Relation{
		1: randomExtent(rng, []cq.Term{x1, x2}, 6000, 200),
		2: randomExtent(rng, []cq.Term{x2, x3}, 6000, 200),
		3: randomExtent(rng, []cq.Term{x1, x2}, 6000, 200),
	}
	s1 := func() *algebra.Scan { return algebra.NewScan(1, []cq.Term{x1, x2}) }
	s2 := func() *algebra.Scan { return algebra.NewScan(2, []cq.Term{x2, x3}) }
	s3 := func() *algebra.Scan { return algebra.NewScan(3, []cq.Term{x1, x2}) }
	execStream := func(t *testing.T, p algebra.Plan, ctx context.Context) *RowStream {
		t.Helper()
		s, err := ExecuteStream(p, MapResolver(views), ExecOptions{Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	cases := []struct {
		name string
		run  func(t *testing.T) error
	}{
		// Store-side operators, driven through buildPipeline so the cancel lands
		// while the named operator is live.
		{"vec/scan", func(t *testing.T) error {
			return drainPipelineMidCancel(t, plan(t, false, fullScan, "IndexScan"))
		}},
		{"vec/merge-join", func(t *testing.T) error {
			return drainPipelineMidCancel(t, plan(t, false, chain3, "MergeJoin"))
		}},
		{"vec/merged-shard-scan", func(t *testing.T) error {
			return drainPipelineMidCancel(t, plan(t, true, fullScan, "shards=4/4"))
		}},
		{"vec/hash-join-build-left", func(t *testing.T) error {
			return drainPipelineMidCancel(t, hashLeftPlan(t))
		}},
		{"vec/hash-join-build-right-cross", func(t *testing.T) error {
			return drainPipelineMidCancel(t, hashRightPlan(t))
		}},

		// Rewriting-tier stream operators over materialized views.
		{"rewrite/scan-project", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p := algebra.NewProject(algebra.NewScan(1, []cq.Term{x1, x2}), []cq.Term{x2, x1})
			return drainStreamMidCancel(t, execStream(t, p, ctx), cancel)
		}},
		{"rewrite/hash-join", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return drainStreamMidCancel(t, execStream(t, algebra.NewJoin(s1(), s2()), ctx), cancel)
		}},
		{"rewrite/union", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return drainStreamMidCancel(t, execStream(t, algebra.NewUnion(s1(), s3()), ctx), cancel)
		}},

		// Serving-tier stream combinators: the cancel is observed by the one
		// member execution being drained (the second member never starts
		// pulling), so the count is still exactly one.
		{"combinator/union-streams", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			u, err := UnionStreams([]*RowStream{
				execStream(t, s1(), ctx),
				execStream(t, s3(), ctx),
			}, 64)
			if err != nil {
				t.Fatal(err)
			}
			return drainStreamMidCancel(t, u, cancel)
		}},
		// Three members on separate tokens: the cancel lands while the second
		// drains (the first is a handful of rows, inside the first slab), and
		// the union stops there instead of letting the third member's token
		// count the same cancellation again.
		{"combinator/union-streams-three-members", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tiny := map[algebra.ViewID]*Relation{4: randomExtent(rand.New(rand.NewSource(12)), []cq.Term{x1, x2}, 8, 200)}
			first, err := ExecuteStream(algebra.NewScan(4, []cq.Term{x1, x2}), MapResolver(tiny), ExecOptions{Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			u, err := UnionStreams([]*RowStream{first, execStream(t, s1(), ctx), execStream(t, s3(), ctx)}, 64)
			if err != nil {
				t.Fatal(err)
			}
			return drainStreamMidCancel(t, u, cancel)
		}},
		{"combinator/project-stream", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ps, err := ProjectStream(plan(t, false, fullScan).EvalStream(ExecOptions{Ctx: ctx}),
				[]cq.Term{cq.Var(2), cq.Var(1), cq.Var(3)})
			if err != nil {
				t.Fatal(err)
			}
			return drainStreamMidCancel(t, ps, cancel)
		}},

		// Entry points under a context cancelled before execution starts: the
		// drain-side checkpoint is the one that counts, still exactly once.
		{"entry/eval-vec", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := plan(t, false, fullScan).EvalStream(ExecOptions{Ctx: ctx}).Collect()
			return err
		}},
		{"entry/execute", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := execute(algebra.NewJoin(s1(), s2()), MapResolver(views), ExecOptions{Ctx: ctx})
			return err
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := CancelStops()
			err := tc.run(t)
			if err != context.Canceled {
				t.Fatalf("cancelled execution terminated with %v, want context.Canceled", err)
			}
			if d := CancelStops() - before; d != 1 {
				t.Fatalf("CancelStops advanced by %d for one cancelled execution, want exactly 1", d)
			}
		})
	}
}

// requireExplain asserts the plan's explain output mentions every marker, so
// a cancellation case keeps exercising the operator it is named after even if
// the planner's choices drift.
func requireExplain(t *testing.T, plan *QueryPlan, marks ...string) {
	t.Helper()
	out := plan.Explain()
	for _, m := range marks {
		if !strings.Contains(out, m) {
			t.Fatalf("plan does not contain %q:\n%s", m, out)
		}
	}
}

// drainPipelineMidCancel runs the store-side pipeline with a live interrupt, pulls
// one batch, cancels, and drains to termination, returning the context's
// terminal error (what RowStream.Collect would surface).
func drainPipelineMidCancel(t *testing.T, plan *QueryPlan) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	root := plan.buildPipeline(newInterrupt(ctx))
	defer closeOp(root)
	if _, ok := root.nextBatch(); !ok {
		t.Fatal("pipeline yielded no batch before cancellation")
	}
	cancel()
	for {
		if _, ok := root.nextBatch(); !ok {
			break
		}
	}
	return ctx.Err()
}

// drainStreamMidCancel pulls one slab, cancels, and drains the stream to its
// terminal state, returning the error that ended it (nil on a natural EOF,
// which the caller treats as a missed cancellation).
func drainStreamMidCancel(t *testing.T, s *RowStream, cancel context.CancelFunc) error {
	t.Helper()
	defer s.Close()
	rows, err := s.Next()
	if err != nil {
		t.Fatalf("first slab: %v", err)
	}
	if rows == nil {
		t.Fatal("stream hit EOF before cancellation")
	}
	cancel()
	for {
		rows, err := s.Next()
		if err != nil {
			return err
		}
		if rows == nil {
			return nil
		}
	}
}

// TestCancelStopsBitsetWindow: a driving union leaf on the bitset merge
// checks for cancellation once per window, besides once per buffer its
// alternatives decode — cancelcheck sees only store.Cursor pull loops, not
// the window loop. Canceled after its first row, the cursor emits the rest
// of the window it has filled, stops before filling the next, and counts the
// stop once.
func TestCancelStopsBitsetWindow(t *testing.T) {
	st, p := windowStore(2, 2, false)
	q := p.MustParseQuery("q(X) :- t(X, rdf:type, c)")
	alts := [][]cq.Atom{typeAlts(st.Dict(), q.Atoms[0][0], cq.Var(900))}
	plan, err := planQuery(st, q, alts, storeCards{st})
	if err != nil {
		t.Fatal(err)
	}
	total, err := plan.EvalStream(ExecOptions{}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	u := newUnionCursor(st, plan.steps[0].spec, newInterrupt(ctx), true)
	defer u.close()
	buf := make([]store.Triple, BatchSize)
	if u.NextBatch(buf[:1]) != 1 || u.bits == nil {
		t.Fatal("the leaf did not start on the bitset merge")
	}
	pending := 0
	for _, w := range u.bits[u.wi:u.wn] {
		pending += bits.OnesCount64(w)
	}
	before := CancelStops()
	cancel()
	rest := 0
	for {
		n := u.NextBatch(buf)
		if n == 0 {
			break
		}
		rest += n
	}
	if rest != pending || 1+rest >= total.Len() {
		t.Fatalf("after the cancel the leaf emitted %d rows, want the window's %d pending of %d in all",
			rest, pending, total.Len())
	}
	if d := CancelStops() - before; d != 1 {
		t.Fatalf("CancelStops advanced by %d, want exactly 1", d)
	}
}
