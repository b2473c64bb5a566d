package maintain

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/store"
)

// TestUntouchedViewsAllocateNothing: a synchronous Insert and Delete of a
// triple whose property no view mentions allocate as much beside 1,000
// one-atom views as beside 10. No view is touched, so none allocates a
// delta, a row set or a relation, and the extent map is not copied.
func TestUntouchedViewsAllocateNothing(t *testing.T) {
	allocs := func(n int) float64 {
		st := store.New()
		var data string
		for k := 0; k < n; k++ {
			data += fmt.Sprintf("a p%d b .\n", k)
		}
		st.MustAddGraph(rdf.MustParse(data))
		p := cq.NewParser(st.Dict())
		views := make(map[algebra.ViewID]*cq.UCQ, n)
		for k := 0; k < n; k++ {
			p.ResetNames()
			views[algebra.ViewID(k+1)] = union(p.MustParseQuery(fmt.Sprintf("q(X, Y) :- t(X, p%d, Y)", k)))
		}
		m, err := New(st, views, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := st.Encode(rdf.T("c", "unmentioned", "d"))
		return testing.AllocsPerRun(50, func() {
			if _, err := m.Insert(tr); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Delete(tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(10), allocs(1000)
	if few != many {
		t.Fatalf("an untouched Insert+Delete allocates %.0f times beside 10 views, %.0f beside 1,000", few, many)
	}
	t.Logf("%.0f allocations per untouched Insert+Delete", few)
}

// perAtomSchema is a sub-property chain p3 ⊑ p2 ⊑ p1 ⊑ p0, a subclass c1 ⊑
// c0, p1's domain c1 and p2's range c0: every p0 atom has four alternatives,
// and a c0 type atom has alternatives with an existential variable.
const perAtomSchema = `
p1 rdfs:subPropertyOf p0 .
p2 rdfs:subPropertyOf p1 .
p3 rdfs:subPropertyOf p2 .
c1 rdfs:subClassOf c0 .
p1 rdfs:domain c1 .
p2 rdfs:range c0 .
`

// perAtomViews are the views TestPerAtomMaintenanceMatchesProductForm
// maintains in their per-atom form: a join through a type atom whose
// alternatives bind an existential variable, a class variable (rule 5) and
// a property variable (rule 6), each of several members, and a five-atom
// chain whose product form has 4^5 = 1,024 members.
var perAtomViews = []string{
	"q(X, Y) :- t(X, p0, Y), t(Y, rdf:type, c0)",
	"q(X, C) :- t(X, rdf:type, C)",
	"q(X, P, Z) :- t(X, P, Y), t(Y, p2, Z)",
	"q(A, F) :- t(A, p0, B), t(B, p0, C), t(C, p0, D), t(D, p0, E), t(E, p0, F)",
}

// TestPerAtomMaintenanceMatchesProductForm maintains views in the per-atom
// form reason.ReformulateAtoms gives them through seeded inserts and
// deletes, synchronously and behind a change queue whose refresher folds at
// most three deltas at a time. Every published generation the test observes
// — after each call in synchronous mode; after each Flush and whenever a
// poller sees a new one in asynchronous mode — must hold each extent sorted
// and equal to engine.MaterializeUCQ over reason.Reformulate's product form
// on the store snapshot of the generation's epoch. That reference plans one
// plain conjunctive query per member, with no union leaf.
func TestPerAtomMaintenanceMatchesProductForm(t *testing.T) {
	for _, queueDepth := range []int{0, 16} {
		t.Run(fmt.Sprintf("queue=%d", queueDepth), func(t *testing.T) {
			st := store.NewDual(2, 2)
			g := rdf.MustParse(perAtomSchema)
			sch, err := rdf.SchemaFromGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			s := reason.NewSchema(sch, st.Dict())
			names := []string{"a", "b", "c", "d", "e"}
			props := []string{"p0", "p1", "p2", "p3", "rdf:type"}
			objects := append(slices.Clone(names), "c0", "c1")
			rng := rand.New(rand.NewSource(52))
			random := func() store.Triple {
				p := props[rng.Intn(len(props))]
				o := objects[rng.Intn(len(objects))]
				if p == "rdf:type" {
					o = objects[len(names)+rng.Intn(2)]
				}
				return st.Encode(rdf.T(names[rng.Intn(len(names))], p, o))
			}
			for k := 0; k < 30; k++ {
				st.Add(random())
			}

			p := cq.NewParser(st.Dict())
			views := make(map[algebra.ViewID]*cq.UCQ)
			products := make(map[algebra.ViewID]*cq.UCQ)
			for i, text := range perAtomViews {
				p.ResetNames()
				q := p.MustParseQuery(text)
				id := algebra.ViewID(i + 1)
				if views[id], err = reason.ReformulateAtoms(q, s, 0); err != nil {
					t.Fatal(err)
				}
				if products[id], err = reason.Reformulate(q, s, 0); err != nil {
					t.Fatal(err)
				}
			}
			if n := products[4].Len(); n <= 1000 || views[4].Len() != 1 {
				t.Fatalf("the chain view has %d product members and %d per-atom ones, want > 1,000 and 1", n, views[4].Len())
			}
			if views[2].Len() < 2 || views[3].Len() < 2 {
				t.Fatalf("rule-5/6 views have %d and %d members, want several", views[2].Len(), views[3].Len())
			}

			m, err := New(st, views, queueDepth)
			if err != nil {
				t.Fatal(err)
			}
			if m.rf != nil {
				m.rf.batchMax = 3 // before the first enqueue, like holdDrain
			}
			var mu sync.Mutex // guards history against the poller's reads
			history := map[uint64]*store.Snapshot{st.Epoch(): st.Snapshot()}
			refs := map[uint64]map[algebra.ViewID]*engine.Relation{} // the reference per epoch
			check := func(es *extentSet, ctx string) {
				t.Helper()
				mu.Lock()
				snap, ok := history[es.epoch]
				mu.Unlock()
				if !ok {
					t.Fatalf("%s: a generation at epoch %d, which no update produced", ctx, es.epoch)
				}
				if refs[es.epoch] == nil {
					refs[es.epoch] = make(map[algebra.ViewID]*engine.Relation)
					for id, u := range products {
						if refs[es.epoch][id], err = engine.MaterializeUCQ(snap, u); err != nil {
							t.Fatal(err)
						}
					}
				}
				for id, want := range refs[es.epoch] {
					x := es.extents[id]
					if !sortedRows(x) {
						t.Fatalf("%s: view v%d's extent is not strictly increasing", ctx, int(id))
					}
					if !x.EqualAsSet(want) {
						t.Fatalf("%s: view v%d holds %d rows at epoch %d, its product form %d",
							ctx, int(id), x.Len(), es.epoch, want.Len())
					}
				}
			}

			var seen []*extentSet
			stop := make(chan struct{})
			var polled sync.WaitGroup
			if m.rf != nil {
				polled.Add(1)
				go func() {
					defer polled.Done()
					var last *extentSet
					for {
						select {
						case <-stop:
							return
						default:
						}
						if es := m.cur.Load(); es != last {
							seen, last = append(seen, es), es
						}
						runtime.Gosched()
					}
				}()
			}

			for round := 0; round < 12; round++ {
				for k := 1 + rng.Intn(8); k > 0; k-- {
					tr := random()
					if rng.Intn(2) == 0 {
						_, err = m.Insert(tr)
					} else {
						_, err = m.Delete(tr)
					}
					if err != nil {
						t.Fatal(err)
					}
					mu.Lock()
					history[st.Epoch()] = st.Snapshot()
					mu.Unlock()
					if m.rf == nil {
						check(m.cur.Load(), fmt.Sprintf("round %d", round))
					}
				}
				if err := m.Flush(); err != nil {
					t.Fatal(err)
				}
				check(m.cur.Load(), fmt.Sprintf("round %d after Flush", round))
			}
			close(stop)
			polled.Wait()
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			for i, es := range seen {
				check(es, fmt.Sprintf("polled generation %d", i))
			}
			t.Logf("%d epochs checked, %d view rows at the end", len(refs), m.NumRows())
		})
	}
}

// sortedRows reports whether x's rows are strictly increasing.
func sortedRows(x *engine.Relation) bool {
	for i := 1; i < x.Len(); i++ {
		if slices.Compare(x.Row(i-1, nil), x.Row(i, nil)) >= 0 {
			return false
		}
	}
	return true
}
