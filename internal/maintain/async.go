package maintain

// The asynchronous half of the maintainer: a bounded change queue written by
// Insert/Delete and drained by one background refresher goroutine.
//
// Writer side (enqueue, serialized by wmu): apply the mutation to the base
// store, capture the store snapshot immediately after it (K atomic pointer
// loads — shard snapshots are immutable, nothing is copied), and append the
// encoded delta to the queue. Because apply and append happen under one
// mutex, the queue is an exact, gap-free journal of the store's mutation
// history, and each delta's snapshot is the store state right after it.
//
// Refresher side: drain the queue in batches of at most batchBound
// contiguous deltas and hand each to the fold (apply) with its pre-state —
// the snapshot of the delta preceding the batch; the batch's last snapshot
// is its post-state. The fold merges each extent it changes into a new one
// and publishes the generation through one atomic pointer swap, so a reader
// pinning a generation never observes a half-applied batch, and the
// generation's epoch tag is exactly the store epoch it reflects.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rdfviews/internal/store"
)

// batchBound caps the deltas folded into one refresh batch, bounding how
// long a published generation can lag behind a full queue.
const batchBound = 256

// refresher owns the change queue and the background goroutine.
type refresher struct {
	m        *Maintainer
	queue    chan delta
	batchMax int // batchBound; tests lower it before the first enqueue

	wmu    sync.Mutex // serializes writers: store apply + snapshot + enqueue
	closed bool

	// Flush coalescing (cohort batching): at most one barrier is pending
	// (created but not yet enqueued) and one in flight at a time. A flusher
	// arriving while a group is pending joins it — the group's barrier will
	// be enqueued after the joiner's deltas, so one drain satisfies the whole
	// cohort. k concurrent flushers cost at most two barriers, not k.
	fmu           sync.Mutex  // guards flightPending/flightLast
	flightPending *flushGroup // joinable: barrier not yet enqueued
	flightLast    *flushGroup // most recently enqueued barrier
	barriers      atomic.Int64

	errMu sync.Mutex
	err   error // first refresher error; sticky

	done chan struct{} // closed when the refresher goroutine exits

	// Test hooks, nil in production. holdDrain, when set before the first
	// delta is enqueued, parks the refresher at the top of each drain round
	// until the channel is closed — the read is ordered after the queue
	// receive, so installing it before the first enqueue is race-free.
	// flushEntered is called by flush() once the caller has committed to a
	// cohort (joined the pending group or registered its own); it lets a test
	// hold the drain until every racing flusher has committed, making the
	// coalescing bound deterministic instead of machine-speed dependent.
	holdDrain    <-chan struct{}
	flushEntered func()
}

func newRefresher(m *Maintainer, queueDepth int, snap *store.Snapshot) *refresher {
	rf := &refresher{
		m:        m,
		queue:    make(chan delta, queueDepth),
		batchMax: batchBound,
		done:     make(chan struct{}),
	}
	go rf.run(snap)
	return rf
}

// enqueue applies the mutation to the base store and appends the delta to
// the change queue. Apply, snapshot and append happen under the writer
// mutex, so queue order equals store mutation order; the send blocks when
// the queue is full. Mutations that change nothing (duplicate insert, absent
// delete) enqueue nothing.
func (rf *refresher) enqueue(op opKind, t store.Triple) error {
	rf.wmu.Lock()
	defer rf.wmu.Unlock()
	if rf.closed {
		return fmt.Errorf("maintain: maintainer is closed")
	}
	if err := rf.loadErr(); err != nil {
		return err
	}
	d, ok := rf.m.mutate(op, t)
	if !ok {
		return nil
	}
	rf.m.pending.Add(1)
	rf.queue <- d
	return nil
}

// flushGroup is one cohort of flush callers sharing a single barrier.
type flushGroup struct {
	done chan struct{} // the barrier channel itself; closed by the refresher
}

// flush waits until every delta enqueued before the call has been folded into
// published extents. Concurrent flushers are coalesced: a caller either joins
// the pending group — whose barrier is guaranteed to be enqueued at-or-after
// the caller's own deltas, because a group stops admitting joiners the moment
// its barrier enters the queue — or leads a new group, first waiting out the
// barrier already in flight so the queue drains once per cohort.
func (rf *refresher) flush() error {
	rf.fmu.Lock()
	if g := rf.flightPending; g != nil {
		rf.fmu.Unlock()
		if rf.flushEntered != nil {
			rf.flushEntered()
		}
		<-g.done
		return rf.loadErr()
	}
	g := &flushGroup{done: make(chan struct{})}
	prev := rf.flightLast
	rf.flightPending = g
	rf.fmu.Unlock()
	if rf.flushEntered != nil {
		rf.flushEntered()
	}

	if prev != nil {
		// An earlier barrier is (or was) in flight; wait it out so every
		// flusher arriving meanwhile piles onto g instead of a fresh barrier.
		<-prev.done
	}

	rf.wmu.Lock()
	if rf.closed {
		// close() drains the queue before returning, so joiners are already
		// satisfied; release them and report the sticky error state.
		rf.fmu.Lock()
		if rf.flightPending == g {
			rf.flightPending = nil
		}
		rf.fmu.Unlock()
		close(g.done)
		rf.wmu.Unlock()
		return rf.loadErr()
	}
	rf.queue <- delta{flush: g.done}
	rf.barriers.Add(1)
	// Stop admitting joiners only now that the barrier is in the queue:
	// while the enqueue was blocked on wmu or a full queue, no delta could be
	// appended either, so everyone who joined is still covered.
	rf.fmu.Lock()
	rf.flightPending = nil
	rf.flightLast = g
	rf.fmu.Unlock()
	rf.wmu.Unlock()

	<-g.done
	return rf.loadErr()
}

// close stops accepting writes, lets the refresher drain what is queued, and
// waits for it to exit.
func (rf *refresher) close() error {
	rf.wmu.Lock()
	if rf.closed {
		rf.wmu.Unlock()
		return rf.loadErr()
	}
	rf.closed = true
	close(rf.queue)
	rf.wmu.Unlock()
	<-rf.done
	return rf.loadErr()
}

func (rf *refresher) setErr(err error) {
	rf.errMu.Lock()
	if rf.err == nil {
		rf.err = err
	}
	rf.errMu.Unlock()
}

func (rf *refresher) loadErr() error {
	rf.errMu.Lock()
	defer rf.errMu.Unlock()
	return rf.err
}

// run is the refresher goroutine: block for the next queue entry, drain a
// batch, apply it, publish, signal any flush barriers drained with it.
func (rf *refresher) run(snapOld *store.Snapshot) {
	defer close(rf.done)
	for {
		d, ok := <-rf.queue
		if !ok {
			return
		}
		if rf.holdDrain != nil {
			// Test hook: park with the round's first delta in hand so enqueued
			// work stays queued until the test releases the gate.
			<-rf.holdDrain
		}
		batch, flushes := rf.collect(d)
		if len(batch) > 0 {
			// After an error the extents are frozen at their last published
			// generation; keep draining so writers and flushes never hang.
			if rf.loadErr() == nil {
				if _, err := rf.m.apply(snapOld, batch); err != nil {
					rf.setErr(err)
				}
			}
			snapOld = batch[len(batch)-1].snap
			rf.m.pending.Add(-int64(len(batch)))
		}
		for _, ch := range flushes {
			close(ch)
		}
	}
}

// collect drains up to batchMax deltas that are already queued, without
// blocking, starting from the first entry. Flush barriers drained along the
// way are returned separately and signaled only after the batch publishes.
func (rf *refresher) collect(first delta) ([]delta, []chan struct{}) {
	var batch []delta
	var flushes []chan struct{}
	add := func(d delta) {
		if d.flush != nil {
			flushes = append(flushes, d.flush)
		} else {
			batch = append(batch, d)
		}
	}
	add(first)
	for len(batch) < rf.batchMax {
		select {
		case d, ok := <-rf.queue:
			if !ok {
				return batch, flushes
			}
			add(d)
		default:
			return batch, flushes
		}
	}
	return batch, flushes
}
