package core

import (
	"errors"
	"testing"
	"time"

	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
)

// figure3Workload builds q(Y, Z) :- t(X, Y, c1), t(X, Z, c2) from Figure 3.
func figure3Workload(t testing.TB) ([]*cq.Query, *cost.Estimator) {
	t.Helper()
	st, p, est := paintersFixtureForSearch(t)
	_ = st
	q := p.MustParseQuery("q(Y, Z) :- t(X, Y, starryNight), t(X, Z, irises)")
	return []*cq.Query{q}, est
}

func paintersFixtureForSearch(t testing.TB) (st interface{ Len() int }, p *cq.Parser, est *cost.Estimator) {
	store, parser, estimator := paintersFixture(t)
	return store, parser, estimator
}

func runSearch(t testing.TB, queries []*cq.Query, opts Options) Result {
	t.Helper()
	s0, ctx, err := InitialState(queries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(s0, ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPaperFigure3StateSpace checks that exhaustive search over the Figure 3
// workload reaches exactly the 9 states S0..S8 of the figure.
func TestPaperFigure3StateSpace(t *testing.T) {
	queries, est := figure3Workload(t)
	res := runSearch(t, queries, Options{Strategy: ExNaive, Estimator: est})
	if res.StatesSeen != 9 {
		t.Fatalf("EXNAIVE reached %d states, want 9 (Figure 3)", res.StatesSeen)
	}
	// EXNAIVE repeats states through multiple paths: S4 and S6 are reached
	// twice in the figure; duplicates must be detected.
	if res.Counters.Duplicates == 0 {
		t.Error("EXNAIVE should encounter duplicate states")
	}
}

// TestStratifiedReachesAllStates is the Theorem 5.2 check: the stratified
// strategy reaches exactly the same state set as the naive exhaustive one.
func TestStratifiedReachesAllStates(t *testing.T) {
	queries, est := figure3Workload(t)
	naive := runSearch(t, queries, Options{Strategy: ExNaive, Estimator: est})
	strat := runSearch(t, queries, Options{Strategy: ExStr, Estimator: est})
	if naive.StatesSeen != strat.StatesSeen {
		t.Fatalf("EXSTR reached %d states, EXNAIVE %d", strat.StatesSeen, naive.StatesSeen)
	}
	if naive.BestCost.Total != strat.BestCost.Total {
		t.Errorf("best costs differ: %v vs %v", naive.BestCost.Total, strat.BestCost.Total)
	}
}

// TestExstrFewerTransitions is the Theorem 5.3 check: EXSTR performs at most
// as many transitions as EXNAIVE.
func TestExstrFewerTransitions(t *testing.T) {
	queries, est := figure3Workload(t)
	naive := runSearch(t, queries, Options{Strategy: ExNaive, Estimator: est})
	strat := runSearch(t, queries, Options{Strategy: ExStr, Estimator: est})
	if strat.Transitions > naive.Transitions {
		t.Fatalf("EXSTR did %d transitions, EXNAIVE %d", strat.Transitions, naive.Transitions)
	}
}

// TestDFSMatchesExhaustiveOnSmallSpace: on a fully explorable space, DFS
// finds the same best cost and the same state set.
func TestDFSMatchesExhaustiveOnSmallSpace(t *testing.T) {
	queries, est := figure3Workload(t)
	naive := runSearch(t, queries, Options{Strategy: ExNaive, Estimator: est})
	dfs := runSearch(t, queries, Options{Strategy: DFS, Estimator: est})
	if dfs.StatesSeen != naive.StatesSeen {
		t.Fatalf("DFS saw %d states, EXNAIVE %d", dfs.StatesSeen, naive.StatesSeen)
	}
	if dfs.BestCost.Total != naive.BestCost.Total {
		t.Errorf("DFS best %v != exhaustive best %v", dfs.BestCost.Total, naive.BestCost.Total)
	}
}

func TestGSTRFindsSolution(t *testing.T) {
	_, p, est := paintersFixture(t)
	q1 := p.MustParseQuery("q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	p.ResetNames()
	q2 := p.MustParseQuery("q(A, B) :- t(A, hasPainted, B), t(A, isParentOf, C)")
	res := runSearch(t, []*cq.Query{q1, q2}, Options{Strategy: GSTR, Estimator: est})
	if res.Best == nil {
		t.Fatal("no best state")
	}
	if res.RCR() < 0 {
		t.Errorf("RCR = %v; GSTR must never return worse than S0", res.RCR())
	}
}

// TestSCAlwaysIncreasesCost and TestVFAlwaysDecreasesCost check the
// "Impact of transitions on the cost" claims of Section 3.3.
func TestSCAlwaysIncreasesCost(t *testing.T) {
	_, p, est := paintersFixture(t)
	q := p.MustParseQuery("q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	s0, ctx, _ := InitialState([]*cq.Query{q})
	base := s0.Cost(est).Total
	n := 0
	ctx.enumSC(s0, func(ns *State) bool {
		n++
		if c := ns.Cost(est).Total; c < base {
			t.Errorf("SC decreased cost: %v -> %v\n%s", base, c, ns.Format())
		}
		return true
	})
	if n == 0 {
		t.Fatal("no SC transitions enumerated")
	}
}

func TestVFAlwaysDecreasesCost(t *testing.T) {
	_, p, est := paintersFixture(t)
	q1 := p.MustParseQuery("q(X) :- t(X, hasPainted, Y)")
	p.ResetNames()
	q2 := p.MustParseQuery("q(A) :- t(A, hasPainted, B)")
	p.ResetNames()
	q3 := p.MustParseQuery("q(B) :- t(A, hasPainted, B)")
	s0, ctx, _ := InitialState([]*cq.Query{q1, q2, q3})
	base := s0.Cost(est).Total
	n := 0
	ctx.enumVF(s0, func(ns *State) bool {
		n++
		if c := ns.Cost(est).Total; c > base {
			t.Errorf("VF increased cost: %v -> %v", base, c)
		}
		return true
	})
	if n == 0 {
		t.Fatal("no VF transitions enumerated")
	}
}

func TestAVFConvergesToSingleFusedState(t *testing.T) {
	_, p, _ := paintersFixture(t)
	// Three identical views: AVF must fuse them into one (the Section 5.2
	// example) regardless of fusion order.
	q1 := p.MustParseQuery("q(X) :- t(X, hasPainted, Y)")
	p.ResetNames()
	q2 := p.MustParseQuery("q(X) :- t(X, hasPainted, Y)")
	p.ResetNames()
	q3 := p.MustParseQuery("q(X) :- t(X, hasPainted, Y)")
	s0, ctx, _ := InitialState([]*cq.Query{q1, q2, q3})
	intermediates := 0
	fused := ctx.avfClose(s0, func(*State) { intermediates++ })
	if fused.NumViews() != 1 {
		t.Fatalf("AVF left %d views, want 1", fused.NumViews())
	}
	if intermediates != 1 {
		t.Errorf("intermediates = %d, want 1 (the 2-view state)", intermediates)
	}
	if fused.Stage != s0.Stage {
		t.Errorf("AVF must preserve the stage: %v", fused.Stage)
	}
}

func TestSTVDiscardsAllVariableViews(t *testing.T) {
	queries, est := figure3Workload(t)
	plain := runSearch(t, queries, Options{Strategy: DFS, Estimator: est})
	stv := runSearch(t, queries, Options{Strategy: DFS, Estimator: est, STV: true})
	if stv.StatesSeen >= plain.StatesSeen {
		t.Errorf("STV should trim states: %d vs %d", stv.StatesSeen, plain.StatesSeen)
	}
	if stv.Counters.Discarded == 0 {
		t.Error("STV discarded nothing")
	}
	// The Figure 3 space has all-variable states (S4..S8): with STV the
	// final best state must keep at least one constant per view.
	for _, v := range stv.Best.Views {
		if v.Q.ConstCount() == 0 {
			t.Errorf("STV best state has all-variable view %v", v.Q)
		}
	}
}

func TestSTTDiscardsTripleTable(t *testing.T) {
	queries, est := figure3Workload(t)
	stt := runSearch(t, queries, Options{Strategy: DFS, Estimator: est, STT: true})
	for _, v := range stt.Best.Views {
		q := v.Q
		if len(q.Atoms) == 1 && q.ConstCount() == 0 {
			t.Errorf("STT best state contains the triple table")
		}
	}
	if stt.Counters.Discarded == 0 {
		t.Error("STT discarded nothing")
	}
}

func TestTimeoutStopsSearch(t *testing.T) {
	_, p, est := paintersFixture(t)
	// A star query with 6 atoms has a large VB space; 1ms cannot finish.
	q := p.MustParseQuery("q(X) :- t(X, p1, c1), t(X, p2, c2), t(X, p3, c3), t(X, p4, c4), t(X, p5, c5), t(X, p6, c6)")
	res := runSearch(t, []*cq.Query{q}, Options{Strategy: DFS, Estimator: est, Timeout: time.Millisecond})
	if !res.TimedOut {
		t.Skip("machine too fast for 1ms timeout check")
	}
	if res.Best == nil {
		t.Fatal("search must always hold a recommended state (stoptime guarantee)")
	}
}

func TestMaxStatesGracefulForOurStrategies(t *testing.T) {
	queries, est := figure3Workload(t)
	res := runSearch(t, queries, Options{Strategy: DFS, Estimator: est, MaxStates: 3})
	if res.Counters.Created > 4 { // one in-flight creation may land past the cap
		t.Errorf("budget ignored: created %d", res.Counters.Created)
	}
	if res.Best == nil {
		t.Fatal("must keep best state")
	}
}

func TestRelationalStrategiesOnTinyWorkload(t *testing.T) {
	_, p, est := paintersFixture(t)
	q1 := p.MustParseQuery("q(X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y)")
	p.ResetNames()
	q2 := p.MustParseQuery("q(A) :- t(A, hasPainted, starryNight), t(A, isParentOf, B)")
	queries := []*cq.Query{q1, q2}
	for _, strat := range []Strategy{RelPruning, RelGreedy, RelHeuristic} {
		s0, ctx, err := InitialState(queries)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Search(s0, ctx, Options{Strategy: strat, Estimator: est})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.Best == nil {
			t.Fatalf("%v: no best state", strat)
		}
		if res.RCR() < 0 {
			t.Errorf("%v: negative rcr", strat)
		}
		// The two queries share structure: the best state should have fused
		// views (fewer than the 2 initial ones after the search, or equal
		// cost at worst).
		if res.BestCost.Total > res.InitialCost.Total {
			t.Errorf("%v: best worse than initial", strat)
		}
	}
}

// TestRelationalBlowsStateBudget reproduces the Section 6.2 observation:
// on larger workloads the [21] strategies exhaust memory (the state budget)
// before producing a complete view set.
func TestRelationalBlowsStateBudget(t *testing.T) {
	_, p, est := paintersFixture(t)
	var queries []*cq.Query
	for i := 0; i < 3; i++ {
		q := p.MustParseQuery(
			"q(X) :- t(X, p1, c1), t(X, p2, Y), t(Y, p3, c2), t(Y, p4, Z), t(Z, p5, c3)")
		queries = append(queries, q)
		p.ResetNames()
	}
	s0, ctx, err := InitialState(queries)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Search(s0, ctx, Options{Strategy: RelPruning, Estimator: est, MaxStates: 200})
	if !errors.Is(err, ErrStateBudget) {
		t.Fatalf("expected ErrStateBudget, got %v", err)
	}
	// Our DFS under the same budget still produces a solution gracefully.
	s0b, ctxb, _ := InitialState(queries)
	res, err := Search(s0b, ctxb, Options{Strategy: DFS, AVF: true, STV: true, Estimator: est, MaxStates: 200})
	if err != nil {
		t.Fatalf("DFS errored: %v", err)
	}
	if res.Best == nil || res.RCR() < 0 {
		t.Fatal("DFS produced no usable recommendation")
	}
}

func TestSearchRequiresEstimator(t *testing.T) {
	queries, _ := figure3Workload(t)
	s0, ctx, _ := InitialState(queries)
	if _, err := Search(s0, ctx, Options{Strategy: DFS}); err == nil {
		t.Fatal("missing estimator must fail")
	}
}

func TestTimelineRecordsProgress(t *testing.T) {
	queries, est := figure3Workload(t)
	res := runSearch(t, queries, Options{Strategy: DFS, Estimator: est, Timeline: true})
	if len(res.Timeline) < 2 {
		t.Fatalf("timeline too short: %d", len(res.Timeline))
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Cost > res.Timeline[i-1].Cost {
			t.Fatal("timeline cost must be non-increasing")
		}
	}
}

func TestStrategyString(t *testing.T) {
	for s := ExNaive; s <= RelHeuristic; s++ {
		if s.String() == "" {
			t.Errorf("empty name for strategy %d", int(s))
		}
	}
	if StageSC.String() != "SC" || StageVF.String() != "VF" {
		t.Error("stage names wrong")
	}
}
