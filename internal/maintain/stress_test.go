package maintain

// Concurrency stress for asynchronous maintenance, meant to run under
// -race: writer goroutines stream deltas through the maintainer while
// readers query published view extents and the base store. Readers assert
// that published generations are never torn (a pinned extent stays
// internally consistent while the refresher churns) and that applied epochs
// move monotonically; after the writers join, a Flush must leave extents
// exactly equal to a from-scratch materialization of the final store.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

func TestAsyncMaintainConcurrentStress(t *testing.T) {
	const (
		writers      = 4
		readers      = 4
		opsPerWriter = 250
		queueDepth   = 128
		batchMax     = 16
		storeShards  = 4
	)
	st := store.NewSharded(storeShards)
	st.MustAddGraph(rdf.MustParse(diffSeedData))
	p := cq.NewParser(st.Dict())
	views := map[algebra.ViewID]*cq.UCQ{}
	views[1] = union(p.MustParseQuery("q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)"))
	p.ResetNames()
	views[2] = union(p.MustParseQuery("q(X, Y) :- t(X, p, Y)"))

	m, err := New(st, views, queueDepth)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.rf.batchMax = batchMax // before the first enqueue

	var wg sync.WaitGroup
	var readerErr atomic.Value
	fail := func(err error) { readerErr.CompareAndSwap(nil, err) }
	writersDone := make(chan struct{})

	// Writers: overlapping subject/property space so deltas collide across
	// writers and rederivation fires constantly.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				s := fmt.Sprintf("s%d", (w*7+i)%19)
				o := fmt.Sprintf("o%d", i%11)
				var line rdf.Triple
				switch i % 3 {
				case 0:
					line = rdf.T(s, "isParentOf", o)
				case 1:
					line = rdf.T(o, "hasPainted", s)
				default:
					line = rdf.T(s, "p", o)
				}
				tr := st.Encode(line)
				if i%4 == 3 {
					if _, err := m.Delete(tr); err != nil {
						fail(fmt.Errorf("writer %d delete: %w", w, err))
						return
					}
				} else if _, err := m.Insert(tr); err != nil {
					fail(fmt.Errorf("writer %d insert: %w", w, err))
					return
				}
			}
		}(w)
	}

	// Readers: pin a generation, drain it through the executor, check
	// internal consistency and epoch monotonicity, and mix in base-store
	// queries that exercise the snapshot-isolated cursors.
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			var lastApplied uint64
			for iter := 0; ; iter++ {
				select {
				case <-writersDone:
					return
				default:
				}
				applied := m.AppliedEpoch()
				if applied < lastApplied {
					fail(fmt.Errorf("reader %d: applied epoch went backwards: %d -> %d", r, lastApplied, applied))
					return
				}
				lastApplied = applied
				if latest := m.LatestEpoch(); latest < applied {
					fail(fmt.Errorf("reader %d: latest epoch %d behind applied %d", r, latest, applied))
					return
				}
				resolve := m.Resolver()
				for id, v := range views {
					rel, err := resolve(id)
					if err != nil {
						fail(fmt.Errorf("reader %d resolve v%d: %w", r, int(id), err))
						return
					}
					before := rel.Len()
					head := v.Queries[0].Head
					out, err := execute(algebra.NewScan(id, head), func(algebra.ViewID) (*engine.Relation, error) {
						return rel, nil
					})
					if err != nil {
						fail(fmt.Errorf("reader %d scan v%d: %w", r, int(id), err))
						return
					}
					// A pinned generation is immutable: its length cannot
					// change under us, and every row has the view's arity.
					if rel.Len() != before || out.Len() != before {
						fail(fmt.Errorf("reader %d: torn extent v%d: len %d -> %d (scanned %d)",
							r, int(id), before, rel.Len(), out.Len()))
						return
					}
					for i := 0; i < out.Len(); i++ {
						if row := out.Row(i, nil); len(row) != len(head) {
							fail(fmt.Errorf("reader %d: v%d row arity %d, want %d", r, int(id), len(row), len(head)))
							return
						}
					}
				}
				// Base-store reads ride the same snapshot isolation.
				_ = st.Count(store.Pattern{})
			}
		}(r)
	}

	wg.Wait()
	close(writersDone)
	rwg.Wait()
	if err, _ := readerErr.Load().(error); err != nil {
		t.Fatal(err)
	}

	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if lag := m.Lag(); lag != 0 {
		t.Fatalf("lag %d after flush", lag)
	}
	if a, l := m.AppliedEpoch(), m.LatestEpoch(); a != l {
		t.Fatalf("applied epoch %d != latest %d after flush", a, l)
	}
	for id, v := range views {
		want, err := engine.MaterializeUCQ(st, v)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := m.Extent(id)
		if !got.EqualAsSet(want) {
			t.Fatalf("view v%d after quiescent flush: %d rows, recompute %d rows", int(id), got.Len(), want.Len())
		}
	}
}
