package rdfviews

import (
	"bytes"
	"testing"
	"time"

	"rdfviews/internal/datagen"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/store"
	"rdfviews/internal/workload"
)

// TestPostViewsMaintainedPerAtom: post-reformulation views are materialized
// and maintained in their per-atom form. On a 20k-triple datagen store with
// its schema, ten satisfiable 4-atom queries give ten views whose store forms
// hold 10 members in all, where Algorithm 1's product forms hold 8,082.
// After 200 deletes and their 200 re-inserts every extent equals the view's
// product form recomputed member by member.
func TestPostViewsMaintainedPerAtom(t *testing.T) {
	db := NewDatabase()
	sch := datagen.GenerateInto(db.Store(), datagen.Config{Triples: 20000, Seed: 1})
	var nt bytes.Buffer
	if err := rdf.Write(&nt, sch.Graph()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadSchema(&nt); err != nil {
		t.Fatal(err)
	}
	qs, err := workload.GenerateSatisfiable(db.Store(), workload.Spec{Queries: 10, AtomsPerQuery: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := db.Recommend(&Workload{Queries: qs}, Options{Reasoning: ReasoningPost, MaxStates: 2000, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	members, products := 0, 0
	for _, v := range rec.state.Views {
		u, err := rec.members(v)
		if err != nil {
			t.Fatal(err)
		}
		members += u.Len()
		p, err := reason.Reformulate(v.Q, rec.schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		products += p.Len()
	}
	if rec.NumViews() != 10 || members != 10 || products != 8082 {
		t.Fatalf("%d views hold %d members in their store forms and %d in their product forms; want 10, 10 and 8,082",
			rec.NumViews(), members, products)
	}

	lv, err := rec.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	triples := db.Store().Triples()
	check := func(when string) {
		t.Helper()
		resolve, snap := lv.extents(), db.st.Snapshot()
		for id, v := range rec.state.Views {
			want, err := engine.MaterializeUCQ(snap, reason.MustReformulate(v.Q, rec.schema))
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := resolve(id); !got.EqualAsSet(want) {
				t.Fatalf("%s: v%d holds %d rows, its product form %d", when, int(id), got.Len(), want.Len())
			}
		}
	}
	for _, op := range []struct {
		name  string
		apply func(store.Triple) (int, error)
	}{{"after 200 deletes", lv.m.Delete}, {"after their 200 re-inserts", lv.m.Insert}} {
		changed := 0
		for i := 0; i < len(triples); i += 100 {
			n, err := op.apply(triples[i])
			if err != nil {
				t.Fatal(err)
			}
			changed += n
		}
		if changed == 0 {
			t.Fatalf("%s: no view row changed", op.name)
		}
		check(op.name)
	}
}
