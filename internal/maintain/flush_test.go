package maintain

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// TestAsyncFlushCoalescesConcurrent pins the cohort-batching contract of
// flush(): k concurrent flushers share at most two barriers — one pending
// group that joiners pile onto, and one new leader waiting out the barrier in
// flight — instead of enqueueing k barriers.
//
// The race window is held open deterministically with the refresher test
// hooks instead of relying on machine speed: holdDrain parks the refresher so
// no barrier can complete, and flushEntered counts flushers that have
// committed to a cohort, so the gate is released only once all k are in. With
// the window pinned the bound is exact (<= 2), not probabilistic.
func TestAsyncFlushCoalescesConcurrent(t *testing.T) {
	st, views, _ := setup(t)
	m, err := New(st, views, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.rf.batchMax = 8

	const flushers = 64
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release() // keep the deferred Close from hanging on a failure path

	var entered atomic.Int64
	allIn := make(chan struct{})
	// Installed before the first enqueue: the refresher reads holdDrain and
	// batchMax only after receiving a delta, and the flusher goroutines start
	// after close of start, so these writes are ordered before any read.
	m.rf.holdDrain = hold
	m.rf.flushEntered = func() {
		if entered.Add(1) == flushers {
			close(allIn)
		}
	}

	enc := func(s, p, o string) store.Triple {
		d := st.Dict()
		return store.Triple{d.Encode(rdf.NewIRI(s)), d.Encode(rdf.NewIRI(p)), d.Encode(rdf.NewIRI(o))}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	before := m.rf.barriers.Load()
	for i := 0; i < flushers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := m.Flush(); err != nil {
				t.Errorf("flush: %v", err)
			}
		}()
	}
	// Real work for the held refresher to fold once released; small batches
	// force many evaluation rounds after the gate opens.
	for i := 0; i < 200; i++ {
		if _, err := m.Insert(enc(fmt.Sprintf("p%d", i), "hasPainted", fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	close(start)
	<-allIn // every flusher has joined the pending group or leads its own
	release()
	wg.Wait()

	barriers := m.rf.barriers.Load() - before
	if barriers > 2 {
		t.Fatalf("%d concurrent flushes enqueued %d barriers, want cohort coalescing (<= 2)",
			flushers, barriers)
	}
	if barriers == 0 {
		t.Fatalf("no barrier enqueued at all")
	}
	// The barrier contract itself: everything enqueued before the flushes is
	// now folded into published extents.
	if m.Lag() != 0 {
		t.Fatalf("lag %d after flush, want 0", m.Lag())
	}
}

// TestAsyncFlushAfterCloseStillReturns guards the closed-path of the
// coalesced flush: a flush racing Close must release joiners, not hang.
func TestAsyncFlushAfterCloseStillReturns(t *testing.T) {
	st, views, _ := setup(t)
	m, err := New(st, views, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("flush after close: %v", err)
	}
}

// TestPublishGenAdvances pins the accessors both modes share. After every
// state-changing update — asynchronously, after a Flush — PublishGen has
// moved by one, Lag and EpochsBehind are 0 and AppliedEpoch == LatestEpoch
// == the store epoch. A duplicate insert moves none of them.
func TestPublishGenAdvances(t *testing.T) {
	type accessors struct {
		lag                                    int
		behind, applied, latest, epoch, pubGen uint64
	}
	for _, depth := range []int{0, 64} {
		t.Run(fmt.Sprintf("queue=%d", depth), func(t *testing.T) {
			st, views, _ := setup(t)
			m, err := New(st, views, depth)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			read := func() accessors {
				return accessors{m.Lag(), m.EpochsBehind(), m.AppliedEpoch(), m.LatestEpoch(), st.Epoch(), m.PublishGen()}
			}
			// settled flushes, then checks that the extents trail nothing.
			settled := func(step string) accessors {
				t.Helper()
				if err := m.Flush(); err != nil {
					t.Fatal(err)
				}
				a := read()
				if a.lag != 0 || a.behind != 0 || a.applied != a.latest || a.latest != a.epoch {
					t.Fatalf("%s: %+v, want lag 0, 0 epochs behind, applied == latest == store epoch", step, a)
				}
				return a
			}
			d := st.Dict()
			tr := store.Triple{d.Encode(rdf.NewIRI("x")), d.Encode(rdf.NewIRI("hasPainted")), d.Encode(rdf.NewIRI("y"))}

			a0 := settled("initial")
			if _, err := m.Insert(tr); err != nil {
				t.Fatal(err)
			}
			a1 := settled("insert")
			if a1.pubGen != a0.pubGen+1 || a1.epoch != a0.epoch+1 {
				t.Fatalf("insert: %+v after %+v, want PublishGen and epoch +1", a1, a0)
			}
			if _, err := m.Insert(tr); err != nil { // duplicate: no state change
				t.Fatal(err)
			}
			if a := read(); a != a1 {
				t.Fatalf("duplicate insert moved the accessors: %+v, was %+v", a, a1)
			}
			if a := settled("duplicate insert"); a != a1 {
				t.Fatalf("duplicate insert moved the accessors: %+v, was %+v", a, a1)
			}
			if _, err := m.Delete(tr); err != nil {
				t.Fatal(err)
			}
			if a2 := settled("delete"); a2.pubGen != a1.pubGen+1 || a2.epoch != a1.epoch+1 {
				t.Fatalf("delete: %+v after %+v, want PublishGen and epoch +1", a2, a1)
			}
		})
	}
}
