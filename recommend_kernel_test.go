package rdfviews

import (
	"sync"
	"testing"
	"time"

	"rdfviews/internal/datagen"
	"rdfviews/internal/rdf"
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
// recommendations' retained estimators are only read. Run under -race (the CI
// race gate matches the test's name).
func TestConcurrentRecommend(t *testing.T) {
	db, w := reformDB(t)
	want, err := db.Recommend(w, budgeted(ReasoningPost, 300))
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
}
