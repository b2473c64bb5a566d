package rdfviews

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rdfviews/internal/core"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/stats"
	"rdfviews/internal/workload"
)

// reformDB is a selection problem shaped like the benchmark's select-reform
// workload: a Barton-like dataset with its RDFS, and generated queries whose
// reformulations are unions of dozens of terms.
func reformDB(t testing.TB) (*Database, *Workload) {
	t.Helper()
	st, schema := datagen.Generate(datagen.Config{Triples: 4000, Seed: 3})
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
		Queries: 3, AtomsPerQuery: 3,
		Shape: workload.Mixed, Commonality: workload.High,
		PropVocab: props, ConstVocab: consts, Seed: 3,
	})
	return &Database{st: st, schema: schema}, &Workload{Queries: qs}
}

func budgeted(mode Reasoning, states int) Options {
	return Options{Reasoning: mode, MaxStates: states, Timeout: time.Minute}
}

// TestRecommendIsDeterministic: cost is a function of the state, so the same
// selection run twice ends on the same best state with the same cost, to the
// bit. (The sums used to run in map order; ties on the last bits then picked
// different best states from run to run.)
func TestRecommendIsDeterministic(t *testing.T) {
	db, w := reformDB(t)
	for _, mode := range []Reasoning{ReasoningPost, ReasoningPre} {
		first, err := db.Recommend(w, budgeted(mode, 400))
		if err != nil {
			t.Fatal(err)
		}
		if mode == ReasoningPre && first.Result().InitialCost == first.Cost() {
			t.Fatalf("%s: the search never improved on S0; the fixture exercises nothing", mode)
		}
		for i := 0; i < 3; i++ {
			again, err := db.Recommend(w, budgeted(mode, 400))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := again.Result().Best.Code(), first.Result().Best.Code(); got != want {
				t.Errorf("%s run %d: best state %v, first run %v", mode, i, got, want)
			}
			if again.Cost() != first.Cost() || again.InitialCost() != first.InitialCost() {
				t.Errorf("%s run %d: cost %+v (S0 %+v), first run %+v (S0 %+v)",
					mode, i, again.Cost(), again.InitialCost(), first.Cost(), first.InitialCost())
			}
			if again.Result().Counters != first.Result().Counters {
				t.Errorf("%s run %d: counters %+v, first run %+v", mode, i, again.Result().Counters, first.Result().Counters)
			}
		}
	}
}

// TestRecommendationRetainsOnlyItsViews: the search's scratch — terms for
// every view of every state it costed — ends with the search. What a
// recommendation keeps for Explain knows the recommended views and no other.
func TestRecommendationRetainsOnlyItsViews(t *testing.T) {
	db, w := reformDB(t)
	rec, err := db.Recommend(w, budgeted(ReasoningPre, 400))
	if err != nil {
		t.Fatal(err)
	}
	if seen := rec.Result().StatesSeen; seen < 100 {
		t.Fatalf("search saw %d states; the fixture exercises nothing", seen)
	}
	if got, want := rec.estimator.Memoized(), rec.NumViews(); got != want {
		t.Errorf("retained estimator holds %d view definitions, the recommendation has %d views", got, want)
	}
	// Explain and the statistics accessors read it without growing it.
	rec.Explain()
	rec.ViewStats()
	rec.PlanStats()
	if got, want := rec.estimator.Memoized(), rec.NumViews(); got != want {
		t.Errorf("after Explain: %d view definitions retained, want %d", got, want)
	}
	// And it agrees with the search on what the recommendation costs.
	if got, want := rec.state.Cost(rec.estimator).Total, rec.Cost().Total; got < want*(1-1e-9) || got > want*(1+1e-9) {
		t.Errorf("retained estimator costs the recommendation at %v, the search at %v", got, want)
	}
}

// TestConcurrentRecommend runs selections from several goroutines against
// one database: every search fills an estimator of its own, and the
// recommendations' retained estimators are only read. In the cold variant no
// serial call has derived the pinned statistics of the database the
// goroutines hit — the first of them does, the others wait for it — and the
// serial result comes from an identical database built apart. Run under -race
// (the CI race gate matches the test's name).
func TestConcurrentRecommend(t *testing.T) {
	for _, variant := range []string{"warm", "cold"} {
		t.Run(variant, func(t *testing.T) {
			db, w := reformDB(t)
			serialDB, serialW := db, w
			if variant == "cold" {
				serialDB, serialW = reformDB(t)
			}
			want, err := serialDB.Recommend(serialW, budgeted(ReasoningPost, 300))
			if err != nil {
				t.Fatal(err)
			}

			const workers = 6
			recs := make([]*Recommendation, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					mode := ReasoningPost
					if i%3 == 2 {
						mode = ReasoningPre
					}
					recs[i], errs[i] = db.Recommend(w, budgeted(mode, 300))
					if errs[i] == nil {
						recs[i].Explain()
					}
				}(i)
			}
			wg.Wait()
			for i, rec := range recs {
				if errs[i] != nil {
					t.Fatalf("worker %d: %v", i, errs[i])
				}
				if rec.mode != ReasoningPost {
					continue
				}
				if rec.Cost() != want.Cost() || rec.Result().Counters != want.Result().Counters {
					t.Errorf("worker %d: cost %+v, counters %+v; alone: %+v, %+v",
						i, rec.Cost(), rec.Result().Counters, want.Cost(), want.Result().Counters)
				}
			}
		})
	}
}

// sameSelection reports every way two recommendations of one selection
// problem differ: best state, costs to the bit, counters, transitions.
func sameSelection(t *testing.T, what string, got, want *Recommendation) {
	t.Helper()
	g, w := got.Result(), want.Result()
	if g.Best.Code() != w.Best.Code() {
		t.Errorf("%s: best state %q, want %q", what, g.Best.Code(), w.Best.Code())
	}
	if got.Cost() != want.Cost() || got.InitialCost() != want.InitialCost() {
		t.Errorf("%s: cost %+v (S0 %+v), want %+v (S0 %+v)",
			what, got.Cost(), got.InitialCost(), want.Cost(), want.InitialCost())
	}
	if g.Counters != w.Counters || g.Transitions != w.Transitions || g.StatesSeen != w.StatesSeen {
		t.Errorf("%s: %+v / %d transitions / %d seen, want %+v / %d / %d", what,
			g.Counters, g.Transitions, g.StatesSeen, w.Counters, w.Transitions, w.StatesSeen)
	}
}

// TestRecommendPinnedStatisticsRepeat: under ReasoningPost the first call of
// a database version derives the global statistics and later calls read them;
// all of them run the same search — the one the commit before the pin ran on
// this fixture (values recorded at 99e98a1) — and so does the first call on
// an identical database built apart.
func TestRecommendPinnedStatisticsRepeat(t *testing.T) {
	db, w := reformDB(t)
	first, err := db.Recommend(w, budgeted(ReasoningPost, 400))
	if err != nil {
		t.Fatal(err)
	}
	r := first.Result()
	if want := (core.Counters{Created: 400, Duplicates: 168, Discarded: 162, Explored: 64}); r.Counters != want ||
		r.Transitions != 400 || r.StatesSeen != 233 {
		t.Errorf("cold call: %+v / %d transitions / %d seen, want %+v / 400 / 233", r.Counters, r.Transitions, r.StatesSeen, want)
	}
	if got, want, s0 := first.Cost().Total, 1561.421025891947, 1566.5912941896026; got != want || first.InitialCost().Total != s0 {
		t.Errorf("cold call: best cost %v (S0 %v), want %v (S0 %v)", got, first.InitialCost().Total, want, s0)
	}
	for i := 2; i <= 3; i++ {
		again, err := db.Recommend(w, budgeted(ReasoningPost, 400))
		if err != nil {
			t.Fatal(err)
		}
		sameSelection(t, fmt.Sprintf("call %d", i), again, first)
	}
	db2, w2 := reformDB(t)
	apart, err := db2.Recommend(w2, budgeted(ReasoningPost, 400))
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, "identical database built apart", apart, first)
}

// postGlobals runs a post-reformulation selection and returns the global
// statistics it was costed with, next to what a provider that derives them
// from the database as it is now reports.
func postGlobals(t *testing.T, db *Database, w *Workload) (used, fresh stats.Globals) {
	t.Helper()
	rec, err := db.Recommend(w, budgeted(ReasoningPost, 50))
	if err != nil {
		t.Fatal(err)
	}
	used = rec.estimator.Stats.(*stats.ReformulatedStats).Globals()
	fresh = stats.NewReformulatedStats(db.st, reason.NewSchema(db.schema, db.st.Dict())).Globals()
	return used, fresh
}

// TestRecommendPinnedStatisticsInvalidate: the pin follows the database
// version. New data, a new schema statement alone, and an insert undone by a
// delete through a maintained recommendation (same content, epoch two
// further) each make the next post-reformulation Recommend derive its
// statistics again.
func TestRecommendPinnedStatisticsInvalidate(t *testing.T) {
	db, w := reformDB(t)
	base, fresh := postGlobals(t, db, w)
	if base != fresh {
		t.Fatalf("cold: costed with %+v, a fresh provider derives %+v", base, fresh)
	}

	db.MustLoadGraphString("pinned:s " + datagen.PropName(0) + " pinned:o .")
	afterData, fresh := postGlobals(t, db, w)
	if afterData != fresh {
		t.Errorf("after LoadGraphString: costed with %+v, a fresh provider derives %+v", afterData, fresh)
	}
	if afterData == base {
		t.Fatalf("the loaded triple left the statistics at %+v; the case checks nothing", base)
	}

	db.MustLoadSchemaString(datagen.PropName(0) + " rdfs:subPropertyOf pinned:super .")
	afterSchema, fresh := postGlobals(t, db, w)
	if afterSchema != fresh {
		t.Errorf("after LoadSchemaString: costed with %+v, a fresh provider derives %+v", afterSchema, fresh)
	}
	if afterSchema == afterData {
		t.Fatalf("the schema statement left the statistics at %+v; the case checks nothing", afterData)
	}

	pre, err := db.Recommend(w, budgeted(ReasoningPre, 50))
	if err != nil {
		t.Fatal(err)
	}
	lv, err := pre.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	epoch := db.st.Epoch()
	line := "pinned:s2 " + datagen.PropName(1) + " pinned:o2 ."
	if _, err := lv.Insert(line); err != nil {
		t.Fatal(err)
	}
	afterInsert, fresh := postGlobals(t, db, w)
	if afterInsert != fresh || afterInsert == afterSchema {
		t.Errorf("after LiveViews.Insert: costed with %+v, a fresh provider derives %+v (before the insert: %+v)",
			afterInsert, fresh, afterSchema)
	}
	if _, err := lv.Delete(line); err != nil {
		t.Fatal(err)
	}
	afterDelete, fresh := postGlobals(t, db, w)
	if afterDelete != fresh || afterDelete != afterSchema {
		t.Errorf("after Insert then Delete: costed with %+v, a fresh provider derives %+v, before the pair %+v",
			afterDelete, fresh, afterSchema)
	}
	if got := db.st.Epoch(); got != epoch+2 || db.pin.epoch != got {
		t.Errorf("store epoch %d, pin at %d; want both at %d", got, db.pin.epoch, epoch+2)
	}
}

// TestRecommendPinnedStatisticsSkipTheUnions: what the steady state saves is
// the derivation itself — the second call opens fewer store cursors than the
// first by at least what one cold derivation opens (the four reformulated
// unions over the whole store). It does not evaluate the largest of them,
// t(X,Y,Z), on the search's behalf either: it opens fewer cursors than that
// union alone takes.
func TestRecommendPinnedStatisticsSkipTheUnions(t *testing.T) {
	db, w := reformDB(t)
	opens := func(f func()) int64 {
		before := db.PruneStats().Opens
		f()
		return db.PruneStats().Opens - before
	}
	recommend := func() {
		if _, err := db.Recommend(w, budgeted(ReasoningPost, 400)); err != nil {
			t.Fatal(err)
		}
	}
	first, second := opens(recommend), opens(recommend)
	schema := reason.NewSchema(db.schema, db.st.Dict())
	derive := opens(func() { stats.NewReformulatedStats(db.st, schema).Globals() })
	relaxed := opens(func() {
		stats.NewReformulatedStats(db.st, schema).AtomCount(cq.Atom{cq.Var(1), cq.Var(2), cq.Var(3)})
	})
	if relaxed == 0 || derive <= relaxed {
		t.Fatalf("t(X,Y,Z) opens %d cursors, a cold derivation %d; the counts measure nothing", relaxed, derive)
	}
	if first-second < derive {
		t.Errorf("first call opened %d cursors, second %d: saved %d, one cold derivation opens %d",
			first, second, first-second, derive)
	}
	if second >= relaxed {
		t.Errorf("second call opened %d cursors; t(X,Y,Z) alone takes %d, so it may have been evaluated again", second, relaxed)
	}
}
