package engine

import (
	"sync"

	"rdfviews/internal/cq"
)

// Parallel rewriting execution over view extents: the answering-tier
// counterpart of the store-side exchange operators in vec_parallel.go. Three
// shapes exist, all selected by ExecOptions.DOP at compile time and all
// producing exactly the serial operators' row sets:
//
//   - newVecRelExchange fans a set of independent substreams (range-split
//     view-extent scans, filters over them, or whole union branches) out over
//     worker goroutines that drain them into dense pooled batches on one
//     shared channel (the vecExchangeOp the sharded scans use);
//   - vecParallelUnionOp evaluates union branches concurrently through such an
//     exchange and deduplicates at the consumer against one shared rowSet
//     sized from the branches' resolved cardinalities;
//   - vecParallelHashJoinRelOp partitions its build extent by key hash into
//     DOP partitions whose hash tables are built concurrently, then fans the
//     probe stream out over worker goroutines (independent range substreams
//     when the probe side splits, a single drainer otherwise) that probe the
//     read-only partitions and emit joined rows as pooled batches.
//
// The consumer recycles each batch into the pool as it advances, so
// steady-state parallel rewriting allocates nothing per batch. Workers run to
// completion when the plan is drained; close() (deferred by the drains)
// releases them early if the pipeline is abandoned.

// drainVecRelTo streams one operator's live rows into out as dense pooled
// batches, stopping early when done closes; it reports whether the source was
// fully drained. Rows are compacted across source batches, so filters that
// pass few rows per input batch still fill the handoff batches.
func drainVecRelTo(src vrop, w int, pool *batchPool, out chan<- *batch, done <-chan struct{}) bool {
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

// newVecRelExchange drains independent source streams on up to workers
// goroutines, each taking the next undrained source until none is left.
func newVecRelExchange(cols []cq.Term, sources []vrop, workers int, intr *interrupt) *vecExchangeOp {
	if workers > len(sources) {
		workers = len(sources)
	}
	if workers < 1 {
		workers = 1
	}
	e := &vecExchangeOp{labels: cols, width: len(cols), workers: workers, sources: sources, intr: intr}
	idx := make(chan int, len(sources))
	for i := range sources {
		idx <- i
	}
	close(idx)
	e.produce = func(int) {
		for i := range idx {
			if !drainVecRelTo(sources[i], e.width, e.pool, e.ch, e.done) {
				return
			}
		}
	}
	return e
}

// vecParallelUnionOp evaluates union branches concurrently (up to DOP at a
// time) through a vectorized exchange and deduplicates at the consumer into
// dense owned output batches.
type vecParallelUnionOp struct {
	ex      *vecExchangeOp
	seen    *rowSet
	scratch Row

	b   *batch
	sel []int32
	si  int
	out *batch
}

func newVecParallelUnion(branches []vrop, sizeHint, dop int, intr *interrupt) *vecParallelUnionOp {
	return &vecParallelUnionOp{
		ex:   newVecRelExchange(branches[0].cols(), branches, dop, intr),
		seen: newRowSet(sizeHint),
	}
}

func (u *vecParallelUnionOp) cols() []cq.Term { return u.ex.cols() }

func (u *vecParallelUnionOp) close() {
	u.out.release()
	u.out = nil
	u.ex.close()
}

// drainInto is the vecSink fast path: rows surviving the cross-branch dedup
// set go straight into the relation, with no output batch in between.
func (u *vecParallelUnionOp) drainInto(out *Relation) {
	w := len(u.cols())
	if u.scratch == nil {
		u.scratch = make(Row, w)
	}
	for {
		if u.b == nil || u.si >= len(u.sel) {
			b, ok := u.ex.nextBatch()
			if !ok {
				u.b = nil
				return
			}
			u.b, u.sel, u.si = b, b.liveSel(), 0
		}
		bcols := u.b.cols
		for u.si < len(u.sel) {
			i := u.sel[u.si]
			u.si++
			for c := 0; c < w; c++ {
				u.scratch[c] = bcols[c][i]
			}
			if kept, added := u.seen.addCopy(u.scratch); added {
				out.Rows = append(out.Rows, kept)
			}
		}
	}
}

func (u *vecParallelUnionOp) nextBatch() (*batch, bool) {
	w := len(u.cols())
	if u.out == nil {
		u.out = newBatch(w)
		u.scratch = make(Row, w)
	}
	out := u.out
	out.reset()
	for {
		if u.b == nil || u.si >= len(u.sel) {
			b, ok := u.ex.nextBatch()
			if !ok {
				u.b = nil
				if out.n > 0 {
					return out, true
				}
				return nil, false
			}
			u.b, u.sel, u.si = b, b.liveSel(), 0
		}
		for u.si < len(u.sel) {
			if out.n == BatchSize {
				return out, true
			}
			i := u.sel[u.si]
			u.si++
			for c := 0; c < w; c++ {
				u.scratch[c] = u.b.cols[c][i]
			}
			if _, added := u.seen.addCopy(u.scratch); added {
				k := out.n
				for c := 0; c < w; c++ {
					out.cols[c][k] = u.scratch[c]
				}
				out.n = k + 1
			}
		}
	}
}

// joinPartition is one key-hash partition of a parallel hash join's build
// side: the same idTable + chain scheme vecHashJoinRelOp uses, immutable once
// built, so probe workers read it without locks.
type joinPartition struct {
	table  *idTable
	rows   []Row
	hashes []uint64
	chains []int32
}

// vecParallelHashJoinRelOp is the partitioned parallel hash join over batch
// streams: the build side is drained once and scattered into dop key-hash
// partitions whose tables build concurrently; probe workers (one per split
// probe substream) then probe the read-only partitions and emit assembled
// output rows as pooled batches. The empty-probe fast path is preserved: one
// probe batch is peeked per substream before the build, and zero rows across
// all substreams skip the build entirely.
type vecParallelHashJoinRelOp struct {
	left, right vrop
	shape       joinShapeInfo
	lIdx, rIdx  []int
	buildLeft   bool
	dop         int
	leftWidth   int
	intr        *interrupt

	started bool
	closed  bool
	done    chan struct{}
	ch      chan *batch
	pool    *batchPool
	parts   []joinPartition
	cur     *batch // the batch currently on loan to the consumer
}

func newVecParallelHashJoin(left, right vrop, shape joinShapeInfo, lIdx, rIdx []int, buildLeft bool, dop int, intr *interrupt) *vecParallelHashJoinRelOp {
	return &vecParallelHashJoinRelOp{left: left, right: right, shape: shape, lIdx: lIdx, rIdx: rIdx,
		buildLeft: buildLeft, dop: dop, leftWidth: len(left.cols()), intr: intr}
}

func (j *vecParallelHashJoinRelOp) cols() []cq.Term { return j.shape.outCols }

func (j *vecParallelHashJoinRelOp) start() {
	j.started = true
	j.done = make(chan struct{})
	j.ch = make(chan *batch, j.dop)
	j.pool = newBatchPool(len(j.shape.outCols))
	build, bIdx := j.right, j.rIdx
	probe, pIdx := j.left, j.lIdx
	if j.buildLeft {
		build, bIdx, probe, pIdx = j.left, j.lIdx, j.right, j.rIdx
	}
	streams, any := splitVecProbeStreams(probe, j.dop)
	if !any {
		close(j.ch) // empty probe: the join is empty, never drain the build
		return
	}
	j.buildPartitions(build, bIdx)
	var wg sync.WaitGroup
	for _, s := range streams {
		wg.Add(1)
		go func(s vrop) {
			defer wg.Done()
			j.probeStream(s, pIdx)
		}(s)
	}
	go func() {
		wg.Wait()
		close(j.ch)
	}()
}

// splitVecProbeStreams splits the probe side into independent substreams when
// it supports splitting (one stream otherwise) and peeks for a first
// non-empty batch across them: when every stream is empty the caller skips
// the build entirely. The peeked batch is pushed back onto its stream;
// streams peeked to EOF stay in the set — operators keep reporting EOF after
// exhaustion.
func splitVecProbeStreams(probe vrop, parts int) ([]vrop, bool) {
	streams := splitVecRel(probe, parts)
	if streams == nil {
		streams = []vrop{probe}
	}
	for i := range streams {
		b, ok := streams[i].nextBatch()
		if !ok {
			continue
		}
		streams[i] = &vecPushback{in: streams[i], b: b}
		return streams, true
	}
	return nil, false
}

// vecPushback replays one peeked batch before the rest of its input's stream.
// The peeked batch stays valid because the input is not pulled again until it
// has been handed out.
type vecPushback struct {
	in vrop
	b  *batch
}

func (p *vecPushback) cols() []cq.Term { return p.in.cols() }
func (p *vecPushback) close()          { closeVop(p.in) }

func (p *vecPushback) nextBatch() (*batch, bool) {
	if p.b != nil {
		b := p.b
		p.b = nil
		return b, true
	}
	return p.in.nextBatch()
}

// buildPartitions drains the build side once, scattering arena-gathered rows
// into dop key-hash partitions, then builds the partition hash tables
// concurrently (one goroutine per partition).
func (j *vecParallelHashJoinRelOp) buildPartitions(build vrop, bIdx []int) {
	j.parts = make([]joinPartition, j.dop)
	if s, ok := build.(*vecRelScanOp); ok && len(s.eq) == 0 && s.i == 0 {
		// Scatter straight from the extent: the scan only relabels columns,
		// so its rows hash and partition as-is — no batch transpose, no
		// arena copies. The loop walks the whole extent without pulling
		// batches, so it polls the interrupt itself, once per batch-worth of
		// rows (the serial zero-copy build does the same).
		rows := s.rows
		s.i = len(rows)
		for r, row := range rows {
			if r&(BatchSize-1) == 0 && j.intr.stop() {
				break
			}
			h := hashValues(row, bIdx)
			p := &j.parts[h%uint64(j.dop)]
			p.rows = append(p.rows, row)
			p.hashes = append(p.hashes, h)
		}
	} else {
		var arena rowArena
		w := len(build.cols())
		for {
			b, ok := build.nextBatch()
			if !ok {
				break
			}
			for _, i := range b.liveSel() {
				row := arena.alloc(w)
				for c := 0; c < w; c++ {
					row[c] = b.cols[c][i]
				}
				h := hashValues(row, bIdx)
				p := &j.parts[h%uint64(j.dop)]
				p.rows = append(p.rows, row)
				p.hashes = append(p.hashes, h)
			}
		}
	}
	var wg sync.WaitGroup
	for i := range j.parts {
		part := &j.parts[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			part.table = newIDTable(len(part.rows))
			part.chains = make([]int32, len(part.rows))
			for r, h := range part.hashes {
				part.chains[r] = part.table.get(h)
				part.table.put(h, int32(r+1))
			}
		}()
	}
	wg.Wait()
}

// probeStream drains one probe substream against the partitioned build,
// assembling output rows into pooled batches on the shared channel.
func (j *vecParallelHashJoinRelOp) probeStream(s vrop, pIdx []int) {
	var acc *batch
	flush := func() bool {
		if acc == nil || acc.n == 0 {
			return true
		}
		select {
		case j.ch <- acc:
			acc = nil
			return true
		case <-j.done:
			j.pool.put(acc)
			acc = nil
			return false
		}
	}
	hashes := make([]uint64, BatchSize)
	for {
		b, ok := s.nextBatch()
		if !ok {
			break
		}
		sel := b.liveSel()
		hs := hashes[:len(sel)]
		for i := range hs {
			hs[i] = hashSeed
		}
		for _, c := range pIdx {
			col := b.cols[c]
			for k, i := range sel {
				hs[k] = hashMix(hs[k], uint64(col[i]))
			}
		}
		for k, i := range sel {
			h := hs[k]
			part := &j.parts[h%uint64(j.dop)]
			prow := int(i)
			for c := part.table.get(h); c != 0; c = part.chains[c-1] {
				brow := part.rows[c-1]
				match := true
				for _, key := range j.shape.keys {
					if j.buildLeft {
						if b.cols[key.ri][prow] != brow[key.li] {
							match = false
							break
						}
					} else if b.cols[key.li][prow] != brow[key.ri] {
						match = false
						break
					}
				}
				if !match {
					continue
				}
				if acc == nil {
					acc = j.pool.get()
				}
				k := acc.n
				if j.buildLeft {
					for c := 0; c < j.leftWidth; c++ {
						acc.cols[c][k] = brow[c]
					}
					for i2, ri := range j.shape.rightKeep {
						acc.cols[j.leftWidth+i2][k] = b.cols[ri][prow]
					}
				} else {
					for c := 0; c < j.leftWidth; c++ {
						acc.cols[c][k] = b.cols[c][prow]
					}
					for i2, ri := range j.shape.rightKeep {
						acc.cols[j.leftWidth+i2][k] = brow[ri]
					}
				}
				acc.n = k + 1
				if acc.n == BatchSize {
					if !flush() {
						return
					}
				}
			}
		}
	}
	if flush() && acc != nil {
		j.pool.put(acc)
	}
}

func (j *vecParallelHashJoinRelOp) nextBatch() (*batch, bool) {
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

func (j *vecParallelHashJoinRelOp) close() {
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
	closeVop(j.left)
	closeVop(j.right)
}
