// Updates: incremental view maintenance — the operational side of the
// paper's maintenance cost VMC = Σ f^len(v) (Section 3.3).
//
// The example recommends views for a workload, puts them under incremental
// maintenance, streams inserts and deletes, and shows that (a) the views
// stay exactly consistent with recomputation, and (b) the per-update work
// grows with view length, which is what VMC charges for.
//
// Run: go run ./examples/updates
package main

import (
	"fmt"
	"log"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/engine"
	"rdfviews/internal/maintain"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

func main() {
	st := store.New()
	st.MustAddGraph(rdf.MustParse(`
u1 hasPainted starryNight .
u1 isParentOf u2 .
u2 hasPainted irises .
`))
	p := cq.NewParser(st.Dict())
	// A view is a union of members; these two have one each.
	views := map[algebra.ViewID]*cq.UCQ{
		1: cq.NewUCQ(p.MustParseQuery("q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)")),
	}
	p.ResetNames()
	views[2] = cq.NewUCQ(p.MustParseQuery("q(A, B) :- t(A, hasPainted, B)"))

	m, err := maintain.New(st, views, 0)
	if err != nil {
		log.Fatal(err)
	}
	show := func(label string) {
		v1, _ := m.Extent(1)
		v2, _ := m.Extent(2)
		fmt.Printf("%-42s join view: %d rows, scan view: %d rows\n", label, v1.Len(), v2.Len())
	}
	show("initial")

	updates := []struct {
		op string
		t  rdf.Triple
	}{
		{"+", rdf.T("u2", "hasPainted", "sunflowers")},
		{"+", rdf.T("u3", "isParentOf", "u2")},
		{"+", rdf.T("u9", "isParentOf", "u2")},
		{"-", rdf.T("u1", "isParentOf", "u2")},
		{"-", rdf.T("u2", "hasPainted", "irises")},
	}
	for _, u := range updates {
		var n int
		var err error
		if u.op == "+" {
			n, err = m.Insert(st.Encode(u.t))
		} else {
			n, err = m.Delete(st.Encode(u.t))
		}
		if err != nil {
			log.Fatal(err)
		}
		show(fmt.Sprintf("%s %v (%d view tuples touched)", u.op, u.t, n))
	}

	// Consistency check against recomputation.
	for id, v := range views {
		want, err := engine.MaterializeUCQ(st.Snapshot(), v)
		if err != nil {
			log.Fatal(err)
		}
		got, _ := m.Extent(id)
		if !got.EqualAsSet(want) {
			log.Fatalf("view v%d diverged from recomputation", id)
		}
	}
	fmt.Println("\nall views consistent with full recomputation")

	// The same maintenance, asynchronously: updates enqueue into a bounded
	// change queue and return; a background refresher folds batches into
	// copy-on-write extents. Lag reports the freshness gap, Flush is the
	// barrier that closes it.
	am, err := maintain.New(st, views, 128)
	if err != nil {
		log.Fatal(err)
	}
	defer am.Close()
	for i := 0; i < 50; i++ {
		if _, err := am.Insert(st.Encode(rdf.T(fmt.Sprintf("a%d", i), "hasPainted", fmt.Sprintf("w%d", i)))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nasync: queued 50 inserts, lag %d deltas (%d epochs behind)\n", am.Lag(), am.EpochsBehind())
	if err := am.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("async: after Flush, lag %d; extents hold %d rows (epoch %d)\n",
		am.Lag(), am.NumRows(), am.AppliedEpoch())
	for id, v := range views {
		want, err := engine.MaterializeUCQ(st.Snapshot(), v)
		if err != nil {
			log.Fatal(err)
		}
		got, _ := am.Extent(id)
		if !got.EqualAsSet(want) {
			log.Fatalf("async view v%d diverged from recomputation", id)
		}
	}
	fmt.Println("async: all views consistent with full recomputation")
}
