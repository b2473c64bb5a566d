package rdfviews

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rdfviews/internal/core"
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
	db := &Database{st: st, schema: schema}
	return db, reformWorkload(db, 3)
}

// reformWorkload draws reformDB's kind of workload from another seed.
func reformWorkload(db *Database, seed int64) *Workload {
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
	return &Workload{Queries: workload.Generate(db.st.Dict(), workload.Spec{
		Queries: 3, AtomsPerQuery: 3,
		Shape: workload.Mixed, Commonality: workload.High,
		PropVocab: props, ConstVocab: consts, Seed: seed,
	})}
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
// serial call has filled the pinned provider of the database the goroutines
// hit — whichever of them asks for a pattern first evaluates it, the others
// wait for that cell or evaluate another — and the serial result comes from
// an identical database built apart. Run under -race (the CI race gate
// matches the test's name).
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
// a database version evaluates the statistics it asks the pinned provider for
// and later calls read them; all of them run the same search — the one the
// commit before the pin ran on this fixture (values recorded at 99e98a1) —
// and so does the first call on an identical database built apart.
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

// postStatistics is every statistic a post-reformulation search of the
// workload starts from: the four globals and the count of each workload atom.
type postStatistics struct {
	globals stats.Globals
	atoms   string // fmt of the per-atom counts, in workload order
}

func postStatisticsOf(p *stats.ReformulatedStats, w *Workload) postStatistics {
	var counts []float64
	for _, q := range w.Queries {
		for _, a := range q.Atoms {
			counts = append(counts, p.AtomCount(a))
		}
	}
	return postStatistics{globals: p.Globals(), atoms: fmt.Sprint(counts)}
}

// postStatisticsUsed runs a post-reformulation selection and returns the
// statistics it was costed with, next to what a provider made for the
// database as it is now derives.
func postStatisticsUsed(t *testing.T, db *Database, w *Workload) (used, fresh postStatistics) {
	t.Helper()
	rec, err := db.Recommend(w, budgeted(ReasoningPost, 50))
	if err != nil {
		t.Fatal(err)
	}
	used = postStatisticsOf(rec.estimator.Stats.(*stats.ReformulatedStats), w)
	fresh = postStatisticsOf(stats.NewReformulatedStats(db.st, reason.NewSchema(db.schema, db.st.Dict())), w)
	return used, fresh
}

// TestRecommendPinnedStatisticsInvalidate: the pin follows the database
// version. New data, a new schema statement alone, and an insert undone by a
// delete through a maintained recommendation (same content, epoch two
// further) each make the next post-reformulation Recommend cost with what a
// fresh provider derives, globals and workload atoms alike. The triples use
// properties of the workload, so each step moves an atom's count too.
func TestRecommendPinnedStatisticsInvalidate(t *testing.T) {
	db, w := reformDB(t)
	base, fresh := postStatisticsUsed(t, db, w)
	if base != fresh {
		t.Fatalf("cold: costed with %+v, a fresh provider derives %+v", base, fresh)
	}

	db.MustLoadGraphString("pinned:s " + datagen.PropName(5) + " pinned:o .")
	afterData, fresh := postStatisticsUsed(t, db, w)
	if afterData != fresh {
		t.Errorf("after LoadGraphString: costed with %+v, a fresh provider derives %+v", afterData, fresh)
	}
	if afterData.globals == base.globals || afterData.atoms == base.atoms {
		t.Fatalf("the loaded triple left statistics where they were (%+v, before %+v); the case checks nothing", afterData, base)
	}

	db.MustLoadSchemaString(datagen.PropName(0) + " rdfs:subPropertyOf " + datagen.PropName(5) + " .")
	afterSchema, fresh := postStatisticsUsed(t, db, w)
	if afterSchema != fresh {
		t.Errorf("after LoadSchemaString: costed with %+v, a fresh provider derives %+v", afterSchema, fresh)
	}
	if afterSchema.globals == afterData.globals || afterSchema.atoms == afterData.atoms {
		t.Fatalf("the schema statement left statistics where they were (%+v, before %+v); the case checks nothing", afterSchema, afterData)
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
	line := "pinned:s2 " + datagen.PropName(11) + " pinned:o2 ."
	if _, err := lv.Insert(line); err != nil {
		t.Fatal(err)
	}
	afterInsert, fresh := postStatisticsUsed(t, db, w)
	if afterInsert != fresh || afterInsert.globals == afterSchema.globals || afterInsert.atoms == afterSchema.atoms {
		t.Errorf("after LiveViews.Insert: costed with %+v, a fresh provider derives %+v (before the insert: %+v)",
			afterInsert, fresh, afterSchema)
	}
	if _, err := lv.Delete(line); err != nil {
		t.Fatal(err)
	}
	afterDelete, fresh := postStatisticsUsed(t, db, w)
	if afterDelete != fresh || afterDelete != afterSchema {
		t.Errorf("after Insert then Delete: costed with %+v, a fresh provider derives %+v, before the pair %+v",
			afterDelete, fresh, afterSchema)
	}
	if got := db.st.Epoch(); got != epoch+2 || db.pin.epoch != got {
		t.Errorf("store epoch %d, pin at %d; want both at %d", got, db.pin.epoch, epoch+2)
	}
}

// TestRecommendPinnedStatisticsInFlight: a version move replaces what the pin
// holds and leaves the replaced objects alone. A recommendation taken before
// a load keeps the provider and the schema it was built with — its statistics
// and the cost of its state under them read after the load as before it —
// while the next Recommend gets a provider and a schema of its own, with the
// new counts.
func TestRecommendPinnedStatisticsInFlight(t *testing.T) {
	db, w := reformDB(t)
	before, err := db.Recommend(w, budgeted(ReasoningPost, 50))
	if err != nil {
		t.Fatal(err)
	}
	held := before.estimator.Stats.(*stats.ReformulatedStats)
	if held != db.pin.reform || before.schema != db.pin.schema {
		t.Fatalf("the recommendation holds provider %p and schema %p, the pin %p and %p", held, before.schema, db.pin.reform, db.pin.schema)
	}
	was := postStatisticsOf(held, w)
	cost := before.state.Cost(before.estimator)

	db.MustLoadGraphString("pinned:s " + datagen.PropName(5) + " pinned:o .")
	after, err := db.Recommend(w, budgeted(ReasoningPost, 50))
	if err != nil {
		t.Fatal(err)
	}
	if db.pin.reform == held || db.pin.schema == before.schema {
		t.Errorf("after the load the pin still holds the earlier recommendation's provider (%v) or schema (%v)",
			db.pin.reform == held, db.pin.schema == before.schema)
	}
	if after.estimator.Stats != db.pin.reform || after.schema != db.pin.schema {
		t.Error("the recommendation taken after the load does not hold what the pin holds")
	}
	if now := postStatisticsOf(held, w); now != was {
		t.Errorf("the earlier recommendation's provider reports %+v after the load, %+v before it", now, was)
	}
	if got := before.state.Cost(before.estimator); got != cost || before.Cost() != cost {
		t.Errorf("the earlier recommendation costs %+v after the load, %+v before it (reported: %+v)", got, cost, before.Cost())
	}
	if now := postStatisticsOf(db.pin.reform, w); now == was {
		t.Fatalf("the load left the statistics at %+v; the case checks nothing", was)
	}
}

// TestRecommendPinnedStatisticsSkipTheUnions: in the steady state nothing is
// evaluated. The second post-reformulation call of a database version opens
// no store cursor at all; a third with another workload evaluates the
// patterns the first two never asked for and reads the rest — it opens fewer
// cursors than the same call on an identical database built apart, which
// starts cold.
func TestRecommendPinnedStatisticsSkipTheUnions(t *testing.T) {
	db, w := reformDB(t)
	opens := func(db *Database, w *Workload) int64 {
		before := db.PruneStats().Opens
		if _, err := db.Recommend(w, budgeted(ReasoningPost, 400)); err != nil {
			t.Fatal(err)
		}
		return db.PruneStats().Opens - before
	}
	first, second := opens(db, w), opens(db, w)
	if first == 0 {
		t.Fatal("the cold call opened no cursor; the counts measure nothing")
	}
	if second != 0 {
		t.Errorf("second call opened %d cursors (first: %d), want 0", second, first)
	}

	other := reformWorkload(db, 4)
	apartDB, _ := reformDB(t)
	third, cold := opens(db, other), opens(apartDB, reformWorkload(apartDB, 4))
	if third == 0 || third >= cold {
		t.Errorf("another workload opened %d cursors on the warm database, %d on a cold one: want fewer, and some", third, cold)
	}
}

// TestRecommendPinnedSaturateRepeat: under ReasoningSaturate every Recommend
// of a database version costs with and materializes against one saturated
// copy — the one Answer reads — and runs the search that saturating per call
// ran on this fixture (values recorded at 7f4d923).
func TestRecommendPinnedSaturateRepeat(t *testing.T) {
	db, w := reformDB(t)
	first, err := db.Recommend(w, budgeted(ReasoningSaturate, 400))
	if err != nil {
		t.Fatal(err)
	}
	r := first.Result()
	if want := (core.Counters{Created: 400, Duplicates: 168, Discarded: 162, Explored: 64}); r.Counters != want ||
		r.Transitions != 400 || r.StatesSeen != 233 {
		t.Errorf("first call: %+v / %d transitions / %d seen, want %+v / 400 / 233", r.Counters, r.Transitions, r.StatesSeen, want)
	}
	if got, want, s0 := first.Cost().Total, 1483.09831952733, 1488.0092411151688; got != want || first.InitialCost().Total != s0 {
		t.Errorf("first call: best cost %v (S0 %v), want %v (S0 %v)", got, first.InitialCost().Total, want, s0)
	}
	again, err := db.Recommend(w, budgeted(ReasoningSaturate, 400))
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, "second call", again, first)
	if again.matStore != first.matStore || first.matStore != db.pin.sat || first.matStore == db.st {
		t.Errorf("saturated copies: first %p, second %p, pinned %p (database store %p); want one copy",
			first.matStore, again.matStore, db.pin.sat, db.st)
	}

	db.MustLoadGraphString("pinned:s " + datagen.PropName(5) + " pinned:o .")
	moved, err := db.Recommend(w, budgeted(ReasoningSaturate, 400))
	if err != nil {
		t.Fatal(err)
	}
	if moved.matStore == first.matStore || moved.matStore.Len() <= first.matStore.Len() {
		t.Errorf("after a load: saturated copy %p with %d triples, before it %p with %d",
			moved.matStore, moved.matStore.Len(), first.matStore, first.matStore.Len())
	}
}

// TestRecommendPinnedSaturateCopyOnMaintain: the saturated copy is shared, so
// nobody writes it. A LiveViews over a saturate recommendation maintains a
// copy of its own: its answers follow its updates, while Database.Answer and
// a later Recommend keep reading the pinned copy, which still equals
// saturating the database afresh.
func TestRecommendPinnedSaturateCopyOnMaintain(t *testing.T) {
	db := NewDatabase()
	db.MustLoadGraphString(museumData)
	db.MustLoadSchemaString(museumSchema)
	w := db.MustParseWorkload(`q(X) :- t(X, rdf:type, picture)`)
	rec, err := db.Recommend(w, Options{Reasoning: ReasoningSaturate, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	size := rec.matStore.Len()
	lv, err := rec.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if _, err := lv.Insert("m9 rdf:type picture ."); err != nil {
		t.Fatal(err)
	}
	live, err := lv.Answer(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(canon(live)), "[m1 m2 m3 m9]"; got != want {
		t.Errorf("live views answer %v after the insert, want %v", got, want)
	}

	q := w.Queries[0]
	got, err := db.Answer(q, ReasoningSaturate)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := db.answerRelation(q, ReasoningSaturate)
	if err != nil {
		t.Fatal(err)
	}
	if want := db.decodeRows(oracle); !sameAnswers(got, want) || len(got) != 3 {
		t.Errorf("Database.Answer under saturate = %v after a LiveViews insert, the uncached oracle %v", canon(got), canon(want))
	}
	if rec.matStore != db.pin.sat || rec.matStore.Len() != size || lv.m.Store() == rec.matStore {
		t.Errorf("pinned copy %p holds %d triples (the recommendation's: %p, %d before the insert); the maintainer writes %p",
			db.pin.sat, db.pin.sat.Len(), rec.matStore, size, lv.m.Store())
	}
	m, err := rec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := m.Answer(0); err != nil || len(rows) != 3 {
		t.Errorf("materializing the recommendation again gives %d rows (%v), want the database's 3", len(rows), err)
	}
}
