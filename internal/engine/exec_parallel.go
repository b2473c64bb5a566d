package engine

import (
	"sync"

	"rdfviews/internal/cq"
)

// Parallel execution above the leaves, selected by ExecOptions.DOP at compile
// time and producing exactly the serial operators' row multisets:
//
//   - newRelExchange fans the independent streams an operator splits into
//     (range-split view-extent scans, filters over them, or whole union
//     branches) out over worker goroutines that drain them into dense pooled
//     batches on one shared channel (the exchangeOp the sharded scans use);
//     a union's dedup stays at the consumer, against one set;
//   - parallelHashJoinOp is the partitioned driver of the hash-join
//     kernel (operators.go): the build side is gathered once and chained
//     through DOP key-hash partition tables linked concurrently, then the
//     probe stream fans out over worker goroutines (independent range
//     substreams when the probe side splits, a single drainer otherwise) that
//     probe the read-only partitions.
//
// The consumer recycles each batch into the pool as it advances, so
// steady-state parallel execution allocates nothing per batch. Workers run to
// completion when the plan is drained; close() (deferred by the drains)
// releases them early if the pipeline is abandoned.

// drainTo streams one operator's live rows into out as dense pooled
// batches, stopping early when done closes; it reports whether the source was
// fully drained. Rows are compacted across source batches, so filters that
// pass few rows per input batch still fill the handoff batches.
func drainTo(src operator, w int, pool *batchPool, out chan<- *batch, done <-chan struct{}) bool {
	var acc *batch
	flush := func() bool {
		if acc == nil || acc.n == 0 {
			return true
		}
		select {
		case out <- acc:
			acc = nil
			return true
		case <-done:
			pool.put(acc)
			acc = nil
			return false
		}
	}
	for {
		b, ok := src.nextBatch()
		if !ok {
			break
		}
		for _, i := range b.liveSel() {
			if acc == nil {
				acc = pool.get()
			}
			k := acc.n
			for c := 0; c < w; c++ {
				acc.cols[c][k] = b.cols[c][i]
			}
			acc.n = k + 1
			if acc.n == BatchSize {
				if !flush() {
					return false
				}
			}
		}
	}
	if !flush() {
		return false
	}
	if acc != nil {
		pool.put(acc)
	}
	return true
}

// newRelExchange parallelizes over: on the first pull it is split into
// independent streams (itself, when it does not split) that up to workers
// goroutines drain, each taking the next undrained stream until none is left.
func newRelExchange(over operator, workers int, intr *interrupt) *exchangeOp {
	return &exchangeOp{labels: over.cols(), workers: workers, over: over, intr: intr}
}

// splitSources resolves the exchange's sources and its workers' share of them.
func (e *exchangeOp) splitSources() {
	e.sources = splitOp(e.over, e.workers)
	if e.sources == nil {
		e.sources = []operator{e.over}
	}
	e.workers = min(e.workers, len(e.sources))
	next := make(chan int, len(e.sources))
	for i := range e.sources {
		next <- i
	}
	close(next)
	e.produce = func(int) {
		for i := range next {
			if !drainTo(e.sources[i], len(e.labels), e.pool, e.ch, e.done) {
				return
			}
		}
	}
}

// parallelHashJoinOp is the partitioned driver of the hash join: the
// build side is gathered once and its dop key-hash partition tables link
// concurrently; probe workers (one per split probe substream) then
// run the probe kernel against the read-only partitions and hand joined rows
// over as pooled batches. The empty-probe fast path is preserved: one probe
// batch is peeked per substream before the build, and zero rows across all
// substreams skip the build entirely.
type parallelHashJoinOp struct {
	hashJoin
	dop int

	started bool
	closed  bool
	done    chan struct{}
	ch      chan *batch
	pool    *batchPool
	cur     *batch // the batch currently on loan to the consumer
}

func (j *parallelHashJoinOp) start() {
	j.started = true
	j.done = make(chan struct{})
	j.ch = make(chan *batch, j.dop)
	j.pool = newBatchPool(len(j.shape.outCols))
	build, probe := j.sides()
	streams, any := splitProbeStreams(probe, j.dop)
	if !any {
		close(j.ch) // empty probe: the join is empty, never drain the build
		return
	}
	t := j.gatherBuild(build)
	t.link(j.dop)
	var wg sync.WaitGroup
	for _, s := range streams {
		wg.Add(1)
		go func(s operator) {
			defer wg.Done()
			j.probeStream(s, t)
		}(s)
	}
	go func() {
		wg.Wait()
		close(j.ch)
	}()
}

// splitProbeStreams splits the probe side into independent substreams when
// it supports splitting (one stream otherwise) and peeks for a first
// non-empty batch across them: when every stream is empty the caller skips
// the build entirely. The peeked batch is pushed back onto its stream;
// streams peeked to EOF stay in the set — operators keep reporting EOF after
// exhaustion.
func splitProbeStreams(probe operator, parts int) ([]operator, bool) {
	streams := splitOp(probe, parts)
	if streams == nil {
		streams = []operator{probe}
	}
	for i := range streams {
		b, ok := streams[i].nextBatch()
		if !ok {
			continue
		}
		streams[i] = &pushbackOp{in: streams[i], b: b}
		return streams, true
	}
	return nil, false
}

// pushbackOp replays one peeked batch before the rest of its input's stream.
// The peeked batch stays valid because the input is not pulled again until it
// has been handed out.
type pushbackOp struct {
	in operator
	b  *batch
}

func (p *pushbackOp) cols() []cq.Term { return p.in.cols() }
func (p *pushbackOp) close()          { closeOp(p.in) }

func (p *pushbackOp) nextBatch() (*batch, bool) {
	if p.b != nil {
		b := p.b
		p.b = nil
		return b, true
	}
	return p.in.nextBatch()
}

// probeStream drains one probe substream through the probe kernel, handing
// each filled pooled batch over on the shared channel.
func (j *parallelHashJoinOp) probeStream(s operator, t *joinTable) {
	pr := joinProbe{j: &j.hashJoin, t: t}
	var acc *batch
	for {
		b, ok := s.nextBatch()
		if !ok {
			break
		}
		pr.begin(b)
		for {
			if acc == nil {
				acc = j.pool.get()
			}
			if !pr.fill(acc) {
				break
			}
			select {
			case j.ch <- acc:
				acc = nil
			case <-j.done:
				j.pool.put(acc)
				return
			}
		}
	}
	if acc != nil && acc.n > 0 {
		select {
		case j.ch <- acc:
			return
		case <-j.done:
		}
	}
	j.pool.put(acc)
}

func (j *parallelHashJoinOp) nextBatch() (*batch, bool) {
	if !j.started {
		j.start()
	}
	if j.cur != nil {
		j.pool.put(j.cur)
		j.cur = nil
	}
	b, ok := <-j.ch
	if !ok {
		return nil, false
	}
	j.cur = b
	return j.cur, true
}

func (j *parallelHashJoinOp) close() {
	if j.started && !j.closed {
		close(j.done)
		for b := range j.ch { // unblock any worker parked on send
			b.release()
		}
		if j.cur != nil {
			j.cur.release()
			j.cur = nil
		}
		j.pool.releaseAll()
	}
	j.closed = true
	closeOp(j.left)
	closeOp(j.right)
}
