package maintain

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// TestSortedExtentFoldMatchesModel drives diffViews on a Dual(2,2) store
// through seeded batches of inserts and deletes, synchronously and behind a
// change queue whose refresher folds at most three deltas at a time, against
// a map of the store's triples kept beside it. Every published generation
// the test observes — after each call in synchronous mode; after each Flush
// and whenever a poller sees a new one in asynchronous mode — must hold
// every extent strictly increasing (sorted on its columns, each row once)
// and equal, as a set, to the view evaluated by nested loops over the map
// as it stood at the generation's epoch.
func TestSortedExtentFoldMatchesModel(t *testing.T) {
	for _, queueDepth := range []int{0, 16} {
		t.Run(fmt.Sprintf("queue=%d", queueDepth), func(t *testing.T) {
			st := store.NewDual(2, 2)
			st.MustAddGraph(rdf.MustParse(diffSeedData))
			views := diffViews(st)
			m, err := New(st, views, queueDepth)
			if err != nil {
				t.Fatal(err)
			}
			if m.rf != nil {
				m.rf.batchMax = 3 // before the first enqueue, like holdDrain
			}
			model := make(map[store.Triple]bool)
			for _, tr := range st.Triples() {
				model[tr] = true
			}
			history := map[uint64]map[store.Triple]bool{st.Epoch(): maps.Clone(model)}
			var mu sync.Mutex // guards history against the poller's reads
			check := func(es *extentSet, ctx string) {
				t.Helper()
				mu.Lock()
				at, ok := history[es.epoch]
				mu.Unlock()
				if !ok {
					t.Fatalf("%s: a generation at epoch %d, which no update produced", ctx, es.epoch)
				}
				for id, v := range views {
					x := es.extents[id]
					rows := make([]engine.Row, x.Len())
					for i := range rows {
						rows[i] = x.Row(i, nil)
					}
					for i := 1; i < len(rows); i++ {
						if slices.Compare(rows[i-1], rows[i]) >= 0 {
							t.Fatalf("%s: view v%d's extent is not strictly increasing at row %d", ctx, int(id), i)
						}
					}
					want := naiveAnswers(v, at)
					if len(rows) != len(want) {
						t.Fatalf("%s: view v%d holds %d rows at epoch %d, the model %d", ctx, int(id), len(rows), es.epoch, len(want))
					}
					for _, r := range rows {
						if !want[fmt.Sprint(r)] {
							t.Fatalf("%s: view v%d holds %v at epoch %d, the model does not", ctx, int(id), r, es.epoch)
						}
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

			rng := rand.New(rand.NewSource(51))
			names := []string{"a", "b", "c", "d", "w1"}
			props := []string{"p", "q", "isParentOf", "hasPainted"}
			for round := 0; round < 80; round++ {
				for k := 1 + rng.Intn(12); k > 0; k-- {
					tr := st.Encode(rdf.T(names[rng.Intn(len(names))], props[rng.Intn(len(props))], names[rng.Intn(len(names))]))
					insert := rng.Intn(2) == 0
					if insert {
						_, err = m.Insert(tr)
					} else {
						_, err = m.Delete(tr)
					}
					if err != nil {
						t.Fatal(err)
					}
					if insert == model[tr] {
						continue // a duplicate insert or an absent delete changes nothing
					}
					if insert {
						model[tr] = true
					} else {
						delete(model, tr)
					}
					mu.Lock()
					history[st.Epoch()] = maps.Clone(model)
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
			if m.rf != nil {
				t.Logf("%d generations polled", len(seen))
			}
		})
	}
}

// naiveAnswers evaluates the view over a set of triples by nested loops, one
// atom at a time, sharing no code with the engine: each answer row rendered
// with fmt.Sprint.
func naiveAnswers(v *cq.UCQ, triples map[store.Triple]bool) map[string]bool {
	out := make(map[string]bool)
	for _, q := range v.Queries {
		var walk func(i int, bind map[cq.Term]dict.ID)
		walk = func(i int, bind map[cq.Term]dict.ID) {
			if i == len(q.Atoms) {
				row := make(engine.Row, len(q.Head))
				for c, h := range q.Head {
					if h.IsConst() {
						row[c] = h.ConstID()
					} else {
						row[c] = bind[h]
					}
				}
				out[fmt.Sprint(row)] = true
				return
			}
		triples:
			for tr := range triples {
				next := maps.Clone(bind)
				for p, term := range q.Atoms[i] {
					want, bound := next[term]
					if term.IsConst() {
						want, bound = term.ConstID(), true
					}
					if bound && want != tr[p] {
						continue triples
					}
					next[term] = tr[p]
				}
				walk(i+1, next)
			}
		}
		walk(0, map[cq.Term]dict.ID{})
	}
	return out
}
