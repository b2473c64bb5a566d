package core

import (
	"fmt"
	"math"
	"testing"

	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/stats"
	"rdfviews/internal/store"
	"rdfviews/internal/workload"
)

// Delta costing must be the same search as the from-scratch costing it
// replaced. The fixtures are the paper's generated workloads over a
// Barton-like dataset with its RDFS, under the three reasoning set-ups
// Recommend offers.

type searchFixture struct {
	st      *store.Store
	schema  *reason.Schema
	queries []*cq.Query
}

func newSearchFixture(t testing.TB, queries, atoms int, seed int64) *searchFixture {
	t.Helper()
	st, rschema := datagen.Generate(datagen.Config{Triples: 4000, Seed: seed})
	var props, consts []string
	for i := 0; i < 16; i++ {
		props = append(props, datagen.PropName(i))
	}
	props = append(props, rdf.RDFType)
	for i := 0; i < 24; i++ {
		consts = append(consts, datagen.ResourceName(i))
	}
	for i := 0; i < 8; i++ {
		consts = append(consts, datagen.ClassName(i))
	}
	qs := workload.Generate(st.Dict(), workload.Spec{
		Queries: queries, AtomsPerQuery: atoms,
		Shape: workload.Mixed, Commonality: workload.High,
		PropVocab: props, ConstVocab: consts, Seed: seed,
	})
	return &searchFixture{st: st, schema: reason.NewSchema(rschema, st.Dict()), queries: qs}
}

// start builds the initial state and estimator of one reasoning mode the way
// Database.Recommend does: "none" and "post" search the workload itself
// (post with reformulated statistics), "pre" the union terms.
func (f *searchFixture) start(t testing.TB, mode string) (*State, *Ctx, *cost.Estimator) {
	t.Helper()
	var provider cost.Stats = stats.NewStoreStats(f.st)
	if mode == "post" {
		provider = stats.NewReformulatedStats(f.st, f.schema)
	}
	var s0 *State
	var ctx *Ctx
	var err error
	if mode == "pre" {
		reforms := make([]*cq.UCQ, len(f.queries))
		for i, q := range f.queries {
			if reforms[i], err = reason.Reformulate(q, f.schema, 0); err != nil {
				t.Fatal(err)
			}
		}
		s0, ctx, err = InitialStateUCQ(f.queries, reforms)
	} else {
		s0, ctx, err = InitialState(f.queries)
	}
	if err != nil {
		t.Fatal(err)
	}
	est := cost.NewEstimator(provider, cost.DefaultWeights())
	est.W.CM = est.CalibrateCM(s0.ViewQueries(), s0.Plans)
	return s0, ctx, est
}

func relClose(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestSearchPinnedToParent pins the counters, transition count and best cost
// of four searches to the values the from-scratch implementation produced
// (recorded at commit 1b0f562, whose best costs wandered in the last two
// digits from run to run): same enumeration order, same duplicates, same best
// state.
func TestSearchPinnedToParent(t *testing.T) {
	for _, tc := range []struct {
		mode           string
		queries, atoms int
		opts           Options
		counters       Counters
		trans, seen    int
		best           float64
	}{
		{"none", 6, 4, Options{Strategy: DFS, AVF: true, STV: true, MaxStates: 600},
			Counters{Created: 600, Duplicates: 218, Discarded: 312, Explored: 59}, 600, 381, 2963.8946501001165},
		{"pre", 3, 3, Options{Strategy: DFS, AVF: true, STV: true, MaxStates: 400},
			Counters{Created: 400, Discarded: 230}, 400, 171, 101481.65035105923},
		{"pre", 3, 3, Options{Strategy: ExStr, STV: true, MaxStates: 400},
			Counters{Created: 400, Duplicates: 57}, 400, 344, 111690.76850997256},
		{"post", 6, 4, Options{Strategy: GSTR, MaxStates: 400},
			Counters{Created: 400, Duplicates: 77, Explored: 3}, 400, 324, 3162.087684310826},
	} {
		t.Run(fmt.Sprintf("%s-%v", tc.mode, tc.opts.Strategy), func(t *testing.T) {
			f := newSearchFixture(t, tc.queries, tc.atoms, 3)
			s0, ctx, est := f.start(t, tc.mode)
			tc.opts.Estimator = est
			res, err := Search(s0, ctx, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters != tc.counters || res.Transitions != tc.trans || res.StatesSeen != tc.seen {
				t.Errorf("got %+v / %d transitions / %d seen, want %+v / %d / %d",
					res.Counters, res.Transitions, res.StatesSeen, tc.counters, tc.trans, tc.seen)
			}
			if !relClose(res.BestCost.Total, tc.best) {
				t.Errorf("best cost %v, want %v", res.BestCost.Total, tc.best)
			}
		})
	}
}

// TestIncrementalMatchesFromScratch runs every strategy, with and without
// AVF, under the three reasoning set-ups, and checks at every created state
// the delta cost against Estimator.CostState.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	for _, mode := range []string{"none", "post", "pre"} {
		for _, strategy := range []Strategy{DFS, GSTR, ExStr, ExNaive} {
			for _, avf := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s-%v-avf=%v", mode, strategy, avf), func(t *testing.T) {
					queries, atoms := 5, 4
					if mode == "pre" {
						queries, atoms = 3, 3
					}
					f := newSearchFixture(t, queries, atoms, 5)
					s0, ctx, est := f.start(t, mode)
					sr := newSearcher(s0, ctx, Options{Strategy: strategy, AVF: avf, STV: true, MaxStates: 400, Estimator: est})

					states := 0
					sr.check = func(s *State) {
						states++
						got, want := s.Cost(est), est.CostState(s.ViewQueries(), s.Plans)
						if !relClose(got.VSO, want.VSO) || !relClose(got.REC, want.REC) ||
							!relClose(got.VMC, want.VMC) || !relClose(got.Total, want.Total) {
							t.Fatalf("delta cost %+v, from scratch %+v, of\n%s", got, want, s.Format())
						}
					}
					if _, err := sr.run(s0); err != nil {
						t.Fatal(err)
					}
					if states < 10 {
						t.Fatalf("only %d states checked", states)
					}
				})
			}
		}
	}
}

// TestCostIsAFunctionOfTheState: the same state costs the same, to the bit,
// whoever asks and however often — the sums run in view-ID order, not in map
// order.
func TestCostIsAFunctionOfTheState(t *testing.T) {
	f := newSearchFixture(t, 3, 3, 3)
	s0, _, est := f.start(t, "pre")
	if s0.NumViews() < 200 {
		t.Fatalf("fixture has %d views, want at least 200", s0.NumViews())
	}
	want := s0.Cost(est)
	for i := 0; i < 100; i++ {
		fresh := cost.NewEstimator(est.Stats, est.W)
		if got := fresh.CostState(s0.ViewQueries(), s0.Plans); got != want {
			t.Fatalf("costing %d: %+v, want %+v", i, got, want)
		}
	}
}

// TestCostAnswersTheEstimatorAsked: a state remembers the breakdown of the
// estimator that costed it first, and must not hand it to another one.
func TestCostAnswersTheEstimatorAsked(t *testing.T) {
	f := newSearchFixture(t, 5, 4, 5)
	s0, ctx, est := f.start(t, "none")
	first := s0.Cost(est)
	s1 := ctx.ApplySC(s0, s0.SortedViews()[0].ID, 0, 1)
	if s1 == nil {
		t.Fatal("SC not applicable")
	}
	delta := s1.Cost(est)

	heavy := est.W
	heavy.CS *= 10
	other := cost.NewEstimator(stats.NewReformulatedStats(f.st, f.schema), heavy)
	for _, s := range []*State{s0, s1} {
		got, want := s.Cost(other), other.CostState(s.ViewQueries(), s.Plans)
		if got != want {
			t.Errorf("asked with another estimator: %+v, want its own %+v", got, want)
		}
	}
	if s0.Cost(est) != first || s1.Cost(est) != delta {
		t.Error("asking with another estimator changed what the first one gets")
	}
}

// Allocation ceilings, in place of timing loops: per-state work must stay
// proportional to the views a transition touches, and a regression shows as
// allocations that grow with the state.
func TestStepAllocations(t *testing.T) {
	f := newSearchFixture(t, 3, 3, 3)
	s0, ctx, est := f.start(t, "pre")
	if s0.NumViews() < 200 {
		t.Fatalf("fixture has %d views, want at least 200", s0.NumViews())
	}
	s0.Cost(est)
	vid := s0.SortedViews()[0].ID
	edge := selectionEdges(s0.View(vid).Q)[0]
	allocs := testing.AllocsPerRun(200, func() {
		ns := ctx.ApplySC(s0, vid, edge.atom, edge.pos)
		ns.Cost(est)
	})
	// A Selection Cut builds one view (query, canonical labeling, plan nodes)
	// and one state (its slices and key); costing it allocates the REC list
	// and re-walks one union plan: 38 allocations, against 35193 at commit
	// 1b0f562.
	if allocs > 150 {
		t.Errorf("ApplySC + Cost on a %d-view state: %.0f allocations, want at most 150", s0.NumViews(), allocs)
	}
}

// TestFirstVFOnClosedStateAllocatesNothing: every AVF closure ends with a
// firstVF call that finds nothing to fuse, and that call only counts bodies.
func TestFirstVFOnClosedStateAllocatesNothing(t *testing.T) {
	f := newSearchFixture(t, 3, 3, 3)
	s0, ctx, _ := f.start(t, "pre")
	closed := ctx.AVFClose(s0, nil)
	if closed.NumViews() < 200 {
		t.Fatalf("closed state has %d views, want at least 200", closed.NumViews())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if ctx.firstVF(closed) != nil {
			t.Fatal("a VF-closed state has a fusion")
		}
	}); allocs != 0 {
		t.Errorf("firstVF on a VF-closed %d-view state: %.0f allocations, want 0", closed.NumViews(), allocs)
	}
}
