package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"rdfviews/internal/algebra"
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
						got := s.Cost(est) // builds the plans of a state the search has not costed
						want := est.CostState(s.ViewQueries(), s.Plans)
						if !relClose(got.VSO, want.VSO) || !relClose(got.REC, want.REC) ||
							!relClose(got.VMC, want.VMC) || !relClose(got.Total, want.Total) {
							t.Fatalf("delta cost %+v, from scratch %+v, of\n%s", got, want, s.Format())
						}
						// A plan's REC term, union legs re-costed or kept, is
						// the whole plan's, to the bit.
						views := s.ViewQueries()
						for k, p := range s.Plans {
							if want := est.PlanREC(est.PlanCost(p, views)); s.recs[k] != want {
								t.Fatalf("plan %d: REC %v, costing the whole plan %v", k, s.recs[k], want)
							}
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
	s1 := ctx.applySC(s0, s0.SortedViews()[0].ID, 0, 1)
	if s1 == nil {
		t.Fatal("SC not applicable")
	}
	delta := s1.Cost(est)

	heavy := est.W
	heavy.CS *= 10
	other := cost.NewEstimator(stats.NewReformulatedStats(f.st, f.schema), heavy)
	for _, s := range []*State{s0, s1} {
		got := s.Cost(other)
		want := other.CostState(s.ViewQueries(), s.Plans)
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
//
// Each step is measured on S0 and on S0 padded with 200 plans that scan a
// view the step leaves alone. A step the search never costs builds no plans,
// so it allocates the same bytes over both. Costed, it must allocate the same
// number of times over both — the plans are built and costed with a fixed
// number of slices over the plans, whatever their number, and only the legs
// the transition touches are rewritten and re-costed.
func TestStepAllocations(t *testing.T) {
	f := newSearchFixture(t, 3, 3, 3)
	s0, ctx, est := f.start(t, "pre")
	if s0.NumViews() < 200 {
		t.Fatalf("fixture has %d views, want at least 200", s0.NumViews())
	}
	views := s0.SortedViews()
	last := views[len(views)-1]
	plans := slices.Clone(s0.Plans)
	for range 200 {
		plans = append(plans, algebra.NewScan(last.ID, last.Q.Head))
	}
	padded := newState(s0.views, plans, listScans(plans), s0.Stage)

	vid := views[0].ID
	edge := selectionEdges(s0.View(vid).Q)[0]
	var jc func(*State) *State
	for _, v := range views {
		if joinVars, occs := joinVarOccurrences(v.Q); v != last && len(joinVars) > 0 {
			x, o := joinVars[0], occs[joinVars[0]][0]
			jc = func(s *State) *State { return ctx.applyJC(s, v.ID, x, o.atom, o.pos) }
			break
		}
	}
	if jc == nil || jc(s0) == nil {
		t.Fatal("no join edge in the fixture")
	}
	var id1, id2 algebra.ViewID
pairs:
	for i, v := range views {
		for _, w := range views[i+1:] {
			if w != last && v.bodyID == w.bodyID && ctx.applyVF(s0, v.ID, w.ID) != nil {
				id1, id2 = v.ID, w.ID
				break pairs
			}
		}
	}
	if id1 == 0 {
		t.Fatal("no fusable pair in the fixture")
	}
	// miss clears the context's memo first, so the step builds its views.
	miss := func(step func(*State) *State) func(*State) *State {
		return func(s *State) *State {
			clear(ctx.memo)
			ctx.memoLog = ctx.memoLog[:0]
			return step(s)
		}
	}
	sc := func(s *State) *State { return ctx.applySC(s, vid, edge.atom, edge.pos) }
	allocs := map[string]float64{}
	for _, tc := range []struct {
		name string
		step func(*State) *State
		// A Selection Cut whose edge the context has built before takes its
		// view from the memo (a renamed query and one view) and builds one
		// state (its slices, its key, the plan nodes of its rewrite); costing
		// it builds its plans and new scan lists for the one leg it rewrites
		// and for that leg's plan, allocates the REC list and the leg
		// costings of one union and re-costs one leg: 25 allocations,
		// against 35193 at commit 1b0f562. Building its view instead (query,
		// canonical labeling, the memo's entry) takes 45, one more than the
		// eager build of the commit before the memo.
		//
		// A Join Cut from the memo takes 34; building the two components of
		// a split (components, minimization, two labelings) 118. A View
		// Fusion builds one view over the body of two and rewrites the legs
		// that scan either: 62 allocations.
		ceiling float64
	}{
		{"applySC", sc, 25},
		{"applySC miss", miss(sc), 45},
		{"applyJC", jc, 34},
		{"applyJC miss", miss(jc), 118},
		{"applyVF", func(s *State) *State { return ctx.applyVF(s, id1, id2) }, 62},
	} {
		var bytes [2]uint64
		var counts [2]float64
		for k, s := range []*State{s0, padded} {
			s.Cost(est)
			bytes[k] = bytesPerRun(200, func() { tc.step(s) })
			counts[k] = testing.AllocsPerRun(200, func() { tc.step(s).Cost(est) })
		}
		allocs[tc.name] = counts[0]
		if bytes[1] != bytes[0] {
			t.Errorf("%s: %d bytes over %d plans, %d over %d", tc.name, bytes[0], len(s0.Plans), bytes[1], len(padded.Plans))
		}
		if counts[0] > tc.ceiling {
			t.Errorf("%s + Cost on a %d-view state: %.0f allocations, want at most %.0f", tc.name, s0.NumViews(), counts[0], tc.ceiling)
		}
		if counts[1] != counts[0] {
			t.Errorf("%s + Cost: %.0f allocations over %d plans, %.0f over %d", tc.name, counts[0], len(s0.Plans), counts[1], len(padded.Plans))
		}
	}
	// A memo hit copies the views of the first build: fewer allocations
	// than building them.
	for _, name := range []string{"applySC", "applyJC"} {
		if allocs[name] >= allocs[name+" miss"] {
			t.Errorf("%s: %.0f allocations from the memo, %.0f building the views", name, allocs[name], allocs[name+" miss"])
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the bytes one call of f
// allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestFirstVFOnClosedStateAllocatesNothing: every AVF closure ends with a
// firstVF call that finds nothing to fuse, and that call only counts bodies.
func TestFirstVFOnClosedStateAllocatesNothing(t *testing.T) {
	f := newSearchFixture(t, 3, 3, 3)
	s0, ctx, _ := f.start(t, "pre")
	closed := ctx.avfClose(s0, nil)
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
