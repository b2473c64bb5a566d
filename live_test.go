package rdfviews

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLiveViewsInsertDelete(t *testing.T) {
	db := paintersDB(t)
	w := db.MustParseWorkload(paintersQuery)
	rec, err := db.Recommend(w, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := rec.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	before, err := lv.Answer(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 2 {
		t.Fatalf("initial answers = %d", len(before))
	}
	// u5's child u6 starts painting: one more answer.
	if _, err := lv.Insert("u6 hasPainted wheatfield ."); err != nil {
		t.Fatal(err)
	}
	after, err := lv.Answer(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 3 {
		t.Fatalf("answers after insert = %d, want 3", len(after))
	}
	// Remove it again.
	if _, err := lv.Delete("u6 hasPainted wheatfield ."); err != nil {
		t.Fatal(err)
	}
	final, err := lv.Answer(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 2 {
		t.Fatalf("answers after delete = %d, want 2", len(final))
	}
	if lv.NumRows() == 0 {
		t.Error("no maintained rows")
	}
	// Errors surface.
	if _, err := lv.Insert("not a triple with many tokens ."); err == nil {
		t.Error("bad triple accepted")
	}
	if _, err := lv.Insert("# comment only"); err == nil {
		t.Error("empty line accepted")
	}
	if _, err := lv.Answer(42); err == nil {
		t.Error("bad index accepted")
	}
}

// TestMaintainAcceptedModes pins which reasoning modes Maintain accepts:
// none, saturate and pre maintain directly (their views are plain
// conjunctive queries over the maintained store); only post is rejected,
// because post-reformulation views stay virtual-by-reformulation.
func TestMaintainAcceptedModes(t *testing.T) {
	for _, tc := range []struct {
		mode Reasoning
		ok   bool
	}{
		{ReasoningNone, true},
		{ReasoningSaturate, true},
		{ReasoningPre, true},
		{ReasoningPost, false},
	} {
		db := NewDatabase()
		db.MustLoadGraphString(museumData)
		db.MustLoadSchemaString(museumSchema)
		w := db.MustParseWorkload(`q(X) :- t(X, rdf:type, picture)`)
		rec, err := db.Recommend(w, Options{Reasoning: tc.mode, Timeout: time.Second})
		if err != nil {
			t.Fatalf("%s: recommend: %v", tc.mode, err)
		}
		lv, err := rec.Maintain()
		if tc.ok != (err == nil) {
			t.Fatalf("Maintain under %s: ok=%v, err=%v", tc.mode, tc.ok, err)
		}
		if err == nil {
			// A maintained mode must actually answer and accept updates.
			if _, aerr := lv.Answer(0); aerr != nil {
				t.Fatalf("%s: answer: %v", tc.mode, aerr)
			}
			if _, ierr := lv.Insert("m77 rdf:type picture ."); ierr != nil {
				t.Fatalf("%s: insert: %v", tc.mode, ierr)
			}
		}
	}
}

// TestLiveViewsAsyncFlushAndLag exercises the asynchronous facade: updates
// return before propagation, Flush is the freshness barrier, Lag drains to
// zero, and post-Flush answers equal the synchronous ones.
func TestLiveViewsAsyncFlushAndLag(t *testing.T) {
	db := paintersDB(t)
	w := db.MustParseWorkload(paintersQuery)
	rec, err := db.Recommend(w, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := rec.MaintainWithOptions(MaintainOptions{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if !lv.Async() {
		t.Fatal("QueueDepth > 0 should maintain asynchronously")
	}
	before, err := lv.Answer(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 2 {
		t.Fatalf("initial answers = %d", len(before))
	}
	if _, err := lv.Insert("u6 hasPainted wheatfield ."); err != nil {
		t.Fatal(err)
	}
	if err := lv.Flush(); err != nil {
		t.Fatal(err)
	}
	if deltas, epochs := lv.Lag(); deltas != 0 || epochs != 0 {
		t.Fatalf("lag after flush = %d deltas, %d epochs", deltas, epochs)
	}
	after, err := lv.Answer(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 3 {
		t.Fatalf("answers after insert+flush = %d, want 3", len(after))
	}
	if _, err := lv.Delete("u6 hasPainted wheatfield ."); err != nil {
		t.Fatal(err)
	}
	if err := lv.Flush(); err != nil {
		t.Fatal(err)
	}
	final, err := lv.Answer(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 2 {
		t.Fatalf("answers after delete+flush = %d, want 2", len(final))
	}
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := lv.Insert("u7 hasPainted nightcafe ."); err == nil {
		t.Fatal("insert after Close should fail")
	}
}

// TestLiveViewsAsyncWaitFresh pins the WaitFresh staleness policy: Answer
// flushes before executing, so results reflect every prior update without an
// explicit Flush.
func TestLiveViewsAsyncWaitFresh(t *testing.T) {
	db := paintersDB(t)
	w := db.MustParseWorkload(paintersQuery)
	rec, err := db.Recommend(w, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := rec.MaintainWithOptions(MaintainOptions{QueueDepth: 64, StaleReads: WaitFresh})
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if _, err := lv.Insert("u6 hasPainted wheatfield ."); err != nil {
		t.Fatal(err)
	}
	rows, err := lv.Answer(0) // no explicit Flush
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("WaitFresh answers = %d, want 3", len(rows))
	}
}

func TestMaintainRejectedUnderPostReformulation(t *testing.T) {
	db := NewDatabase()
	db.MustLoadGraphString(museumData)
	db.MustLoadSchemaString(museumSchema)
	w := db.MustParseWorkload(`q(X) :- t(X, rdf:type, picture)`)
	rec, err := db.Recommend(w, Options{Reasoning: ReasoningPost, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Maintain(); err == nil {
		t.Fatal("post-reformulation maintenance should be rejected")
	}
}

func TestMaintainUnderSaturation(t *testing.T) {
	db := NewDatabase()
	db.MustLoadGraphString(museumData)
	db.MustLoadSchemaString(museumSchema)
	w := db.MustParseWorkload(`q(X) :- t(X, rdf:type, picture)`)
	rec, err := db.Recommend(w, Options{Reasoning: ReasoningSaturate, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := rec.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := lv.Answer(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // m1, m2 (paintings ⊑ picture), m3
		t.Fatalf("saturated answers = %d, want 3", len(rows))
	}
	// An update against the saturated store: new explicit picture.
	if _, err := lv.Insert("m9 rdf:type picture ."); err != nil {
		t.Fatal(err)
	}
	rows, _ = lv.Answer(0)
	if len(rows) != 4 {
		t.Fatalf("answers after insert = %d, want 4", len(rows))
	}
}

// TestConcurrentAnswerPinsOneGeneration drives LiveViews.Answer against
// concurrent writers under both staleness policies. The view extents hold
// thousands of rows, and writers insert complete (locatedIn, hasPainted)
// pairs, so every answer must reflect one pinned extent generation:
// per-query answer counts can only grow between calls (published generations
// are monotonic under insert-only churn), every row decodes at the query's
// arity, and after the writers drain and a Flush the counts are exact and the
// answers equal the store's own answer to the workload query. Run with -race
// to check the rewriting executor's reads against the refresher's extent
// publication.
func TestConcurrentAnswerPinsOneGeneration(t *testing.T) {
	var data strings.Builder
	const base = 1200
	for i := 0; i < base; i++ {
		fmt.Fprintf(&data, "p%d hasPainted w%d .\n", i, i)
		fmt.Fprintf(&data, "w%d locatedIn m%d .\n", i, i%7)
	}
	db := NewDatabaseSharded(2)
	db.MustLoadGraphString(data.String())
	// The two atomic queries push the search toward materializing the atomic
	// views, so the join query's rewriting stays a hash join over large
	// extents.
	w := db.MustParseWorkload(`
q(X, Y) :- t(X, hasPainted, Y)
q(Y, Z) :- t(Y, locatedIn, Z)
q(X, Z) :- t(X, hasPainted, Y), t(Y, locatedIn, Z)`)
	rec, err := db.Recommend(w, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 3, 40
	for _, policy := range []StaleReadPolicy{ServeStale, WaitFresh} {
		t.Run(policy.String(), func(t *testing.T) {
			lv, err := rec.MaintainWithOptions(MaintainOptions{
				QueueDepth: 256,
				StaleReads: policy,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer lv.Close()
			initial := make([]int, w.Len())
			for i := range initial {
				rows, err := lv.Answer(i)
				if err != nil {
					t.Fatal(err)
				}
				initial[i] = len(rows)
			}
			var wg sync.WaitGroup
			for wid := 0; wid < writers; wid++ {
				wg.Add(1)
				go func(wid int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						// locatedIn first, then hasPainted: a pair completes
						// exactly one new join answer.
						loc := fmt.Sprintf("w-%s-%d-%d locatedIn m0 .", policy, wid, i)
						if _, err := lv.Insert(loc); err != nil {
							t.Error(err)
							return
						}
						painted := fmt.Sprintf("p-%s-%d-%d hasPainted w-%s-%d-%d .", policy, wid, i, policy, wid, i)
						if _, err := lv.Insert(painted); err != nil {
							t.Error(err)
							return
						}
					}
				}(wid)
			}
			last := append([]int(nil), initial...)
			total := writers * perWriter
			for round := 0; round < 25; round++ {
				for i := 0; i < w.Len(); i++ {
					rows, err := lv.Answer(i)
					if err != nil {
						t.Fatal(err)
					}
					if len(rows) < last[i] || len(rows) > initial[i]+total {
						t.Fatalf("q%d round %d: %d answers outside [%d, %d] — torn extent generation?",
							i, round, len(rows), last[i], initial[i]+total)
					}
					for _, row := range rows {
						if len(row) != 2 {
							t.Fatalf("q%d: answer arity %d, want 2", i, len(row))
						}
					}
					last[i] = len(rows)
				}
			}
			wg.Wait()
			if err := lv.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < w.Len(); i++ {
				rows, err := lv.Answer(i)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != initial[i]+total {
					t.Fatalf("q%d after flush: %d answers, want %d", i, len(rows), initial[i]+total)
				}
				// The workload query answered straight from the store must
				// agree with the answer from the flushed view extents.
				want, err := db.Answer(w.Queries[i], ReasoningNone)
				if err != nil {
					t.Fatal(err)
				}
				if !sameAnswers(want, rows) {
					t.Fatalf("q%d: store answers %d rows, views answer %d", i, len(want), len(rows))
				}
			}
		})
	}
}

// TestConcurrentQueriesDuringMaintenance runs store-level queries in
// parallel with LiveViews.Insert/Delete churn on a sharded database. The
// churn touches only its own predicate, so every concurrent answer over the
// stable part of the data must be exact — the per-shard snapshot isolation
// the sharded store guarantees. Run with -race to check the handoff.
func TestConcurrentQueriesDuringMaintenance(t *testing.T) {
	db := NewDatabaseSharded(4)
	db.MustLoadGraphString(paintersData)
	w := db.MustParseWorkload(paintersQuery)
	rec, err := db.Recommend(w, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := rec.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	stable := db.MustParseWorkload(`q(X, Y) :- t(X, hasPainted, Y)`).Queries[0]
	want, err := db.Answer(stable, ReasoningNone)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			got, err := db.Answer(stable, ReasoningNone)
			if err != nil {
				done <- err
				return
			}
			if len(got) != len(want) {
				done <- fmt.Errorf("concurrent query %d: %d answers, want %d", i, len(got), len(want))
				return
			}
		}
		done <- nil
	}()
	// Churn through the maintainer on a predicate the stable query never
	// touches, alternating inserts and deletes across many subjects so every
	// shard mutates.
	for i := 0; ; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// Cursor-invalidation contract at the live layer: answers after
			// the churn settle back to the initial state.
			final, err := db.Answer(stable, ReasoningNone)
			if err != nil {
				t.Fatal(err)
			}
			if len(final) != len(want) {
				t.Fatalf("after churn: %d answers, want %d", len(final), len(want))
			}
			return
		default:
		}
		line := fmt.Sprintf("churner%d likesColor blue%d .", i%31, i%17)
		if _, err := lv.Insert(line); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := lv.Delete(line); err != nil {
				t.Fatal(err)
			}
		}
	}
}
