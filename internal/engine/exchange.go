package engine

import (
	"sync"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// Exchange operators, the engine's only parallelism: when the store is
// sharded, the planner replaces the driving index scan of a pipeline with a
// fan-out that opens one shard-local cursor per partition of the placement
// route on its own goroutine. Shard workers decode and bind whole column
// batches and hand each one over a channel in a single send, and the batches
// themselves are leased from a shared batchPool, recycled by the consumer as
// it advances, so steady-state parallel scans allocate nothing per batch.
//
// Two gather shapes exist, mirroring classic exchange operators:
//
//   - exchangeOp collects batches from all workers over one channel in
//     arrival order — used when nothing downstream depends on the scan's
//     sort order (hash joins, plain projection);
//   - gatherMergeOp keeps one channel per worker and merges their streams
//     on the pipeline's sort slot. Each shard cursor emits in permutation
//     order, so the merge restores the global order a downstream merge join
//     requires.
//
// Workers run to completion when the pipeline is drained; close() (called by
// the drains on exit) releases them early if the pipeline is abandoned.

// scanShard streams one routed shard's matching triples as pooled column
// batches: worker k of a fan-out opens the route's k-th shard. It returns
// early when done closes or intr fires (the cancellation checkpoint also
// covers batches a send would never flush: fully-filtered ones). Batches
// with no surviving rows (all dropped by repeated-variable checks) are
// recycled, never sent, preserving the operator contract that delivered
// batches are non-empty.
func scanShard(st store.Reader, route store.Route, k int, spec *atomSpec, pool *batchPool, out chan<- *batch, done <-chan struct{}, intr *interrupt) {
	cur := st.RouteShardCursor(route, k, spec.perm, spec.pat)
	tris := getTris()
	defer putTris(tris)
	for {
		if intr.stop() {
			return
		}
		n := cur.NextBatch(tris)
		if n == 0 {
			return
		}
		b := pool.get()
		bindBatch(b, spec, tris[:n])
		if b.live() == 0 {
			pool.put(b)
			continue
		}
		select {
		case out <- b:
		case <-done:
			pool.put(b)
			return
		}
	}
}

// exchangeOp is the unordered parallel scan: one worker per shard of the
// placement route, all feeding a single channel of pooled batches; batches
// surface in whatever order the workers produce them (output order is
// immaterial under set semantics) and return to the pool when the consumer
// advances.
type exchangeOp struct {
	st    store.Reader
	spec  *atomSpec
	route store.Route // placement route the workers fan out over
	dop   int
	intr  *interrupt

	started bool
	closed  bool
	done    chan struct{}
	ch      chan *batch
	pool    *batchPool
	cur     *batch // the batch currently on loan to the consumer
}

func (e *exchangeOp) cols() []cq.Term { return e.spec.vars }

func (e *exchangeOp) start() {
	e.done = make(chan struct{})
	e.ch = make(chan *batch, e.dop)
	e.pool = newBatchPool(len(e.spec.binds))
	var wg sync.WaitGroup
	for k := 0; k < e.dop; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			scanShard(e.st, e.route, k, e.spec, e.pool, e.ch, e.done, e.intr)
		}(k)
	}
	go func() {
		wg.Wait()
		close(e.ch)
	}()
	e.started = true
}

func (e *exchangeOp) nextBatch() (*batch, bool) {
	if !e.started {
		e.start()
	}
	// Consumer-side checkpoint: workers may have exited with their whole
	// output buffered in the channel; close() recycles those batches.
	if e.intr.stop() {
		return nil, false
	}
	if e.cur != nil {
		e.pool.put(e.cur)
		e.cur = nil
	}
	b, ok := <-e.ch
	if !ok {
		return nil, false
	}
	e.cur = b
	return b, true
}

func (e *exchangeOp) close() {
	if e.started && !e.closed {
		close(e.done)
		for b := range e.ch { // unblock any worker parked on send
			b.release()
		}
		if e.cur != nil {
			e.cur.release()
			e.cur = nil
		}
		e.pool.releaseAll()
	}
	e.closed = true
}

// shardStream is one worker's batch stream with its merge position.
type shardStream struct {
	ch  chan *batch
	b   *batch
	sel []int32
	i   int
	eof bool
}

// refill ensures the stream's current batch has an unconsumed row, returning
// the previous batch to the pool as it advances; false means exhausted.
func (s *shardStream) refill(pool *batchPool) bool {
	for !s.eof && (s.b == nil || s.i >= len(s.sel)) {
		if s.b != nil {
			pool.put(s.b)
			s.b = nil
		}
		b, ok := <-s.ch
		if !ok {
			s.eof = true
			break
		}
		s.b, s.sel, s.i = b, b.liveSel(), 0
	}
	return !s.eof
}

// gatherMergeOp is the ordered parallel scan over batches: one channel per
// shard worker, merged row-by-row on the column the pipeline is sorted on into
// a dense output batch the operator owns. The merge itself stays
// per-row (it must interleave streams), but decode, binding and channel
// handoff are all batch-amortized.
type gatherMergeOp struct {
	st    store.Reader
	spec  *atomSpec
	route store.Route // placement route the workers fan out over
	dop   int
	slot  int // column the streams are merged on
	intr  *interrupt

	started bool
	closed  bool
	done    chan struct{}
	pool    *batchPool
	streams []shardStream
	live    []int // indexes of streams not yet exhausted
	out     *batch
}

func (g *gatherMergeOp) cols() []cq.Term { return g.spec.vars }

func (g *gatherMergeOp) start() {
	g.done = make(chan struct{})
	g.pool = newBatchPool(len(g.spec.binds))
	g.streams = make([]shardStream, g.dop)
	g.live = make([]int, g.dop)
	for s := 0; s < g.dop; s++ {
		g.live[s] = s
		ch := make(chan *batch, 2)
		g.streams[s].ch = ch
		go func(k int, out chan *batch) {
			defer close(out)
			scanShard(g.st, g.route, k, g.spec, g.pool, out, g.done, g.intr)
		}(s, ch)
	}
	g.out = newBatch(len(g.spec.binds))
	g.started = true
}

func (g *gatherMergeOp) nextBatch() (*batch, bool) {
	if !g.started {
		g.start()
	}
	// Consumer-side checkpoint: a small scan fits each shard's output in the
	// channel buffers, so the workers' own polls can all predate the cancel;
	// the merge must stop delivering what they left behind.
	if g.intr.stop() {
		return nil, false
	}
	out := g.out
	out.reset()
	for out.n < BatchSize {
		// Only live streams are consulted: a stream that reports EOF is
		// swap-removed from the live set.
		best := -1
		var bestKey dict.ID
		for k := 0; k < len(g.live); {
			i := g.live[k]
			s := &g.streams[i]
			if !s.refill(g.pool) {
				last := len(g.live) - 1
				g.live[k] = g.live[last]
				g.live = g.live[:last]
				continue
			}
			if key := s.b.cols[g.slot][s.sel[s.i]]; best < 0 || key < bestKey {
				best, bestKey = i, key
			}
			k++
		}
		if best < 0 {
			break
		}
		s := &g.streams[best]
		row := int(s.sel[s.i])
		s.i++
		k := out.n
		for c, col := range s.b.cols {
			out.cols[c][k] = col[row]
		}
		out.n = k + 1
	}
	if out.n == 0 {
		return nil, false
	}
	return out, true
}

func (g *gatherMergeOp) close() {
	if !g.started || g.closed {
		return
	}
	g.closed = true
	close(g.done)
	for i := range g.streams {
		for b := range g.streams[i].ch {
			b.release()
		}
		if g.streams[i].b != nil {
			g.streams[i].b.release()
			g.streams[i].b = nil
		}
	}
	g.out.release()
	g.out = nil
	g.pool.releaseAll()
}
