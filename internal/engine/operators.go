package engine

import (
	"fmt"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// The engine's operators: pull-based physical operators exchanging column
// batches (batch.go). One set serves both tiers — a conjunctive query over
// the triple table t(s,p,o) and a rewriting over view extents are the same
// algebra over two leaf kinds, scanOp (IndexScan, pipeline.go) and viewScanOp
// (ViewScan). This file holds what every plan shares: the view-extent scan,
// filters, the deduplicating projection, the one union (newUnion) and the
// hash join. Filters narrow selection vectors in place without moving data;
// hash joins hash whole key columns and fetch chain heads with one getBatch
// call per probe batch. compileRel (exec.go) assembles them for rewriting
// plans, QueryPlan.compile (pipeline.go) for store-side pipelines, and the
// stream combinators (stream.go) join finished trees under a union or a
// permutation; the one drain (stream.go) pulls the root of any of them.
//
// Columns are positional: a batch's column i carries cols()[i].
//
// Ownership: a returned batch is valid only until the next nextBatch call.
// Every operator runs on the consumer's goroutine and reuses one owned output
// batch.

// operator is a pull-based physical operator yielding column batches.
type operator interface {
	// cols labels the operator's output columns, positionally.
	cols() []cq.Term
	// nextBatch returns the next batch, valid until the next call. Returned
	// batches always have at least one live row; EOF is the false return.
	nextBatch() (*batch, bool)
}

// closeOp releases the operator's batches and buffers back to their pools;
// safe on operators without any.
func closeOp(o operator) {
	if c, ok := o.(interface{ close() }); ok {
		c.close()
	}
}

// viewScanOp (ViewScan) streams a materialized view's rows as column batches
// under the scan's relabeling: each batch is one widening copy per column of
// up to BatchSize extent rows, with repeated-label equality filters compacted
// into the selection.
type viewScanOp struct {
	view   algebra.ViewID
	src    [][]uint32 // the extent's column slabs, as compiled
	n      int        // the extent's rows, as compiled
	labels []cq.Term
	eq     [][2]int
	est    float64 // the extent's cardinality, discounted per equality filter
	intr   *interrupt
	i      int
	out    *batch
}

// newViewScanOp scans rel (nil for a scan that is only described) under
// labels.
func newViewScanOp(view algebra.ViewID, rel *Relation, labels []cq.Term, eq [][2]int, est float64, intr *interrupt) *viewScanOp {
	s := &viewScanOp{view: view, labels: labels, eq: eq, est: est, intr: intr}
	if rel != nil {
		s.src, s.n = rel.vals, rel.n
	}
	return s
}

func (s *viewScanOp) cols() []cq.Term { return s.labels }

func (s *viewScanOp) close() {
	s.out.release()
	s.out = nil
}

func (s *viewScanOp) nextBatch() (*batch, bool) {
	if s.out == nil {
		s.out = newBatch(len(s.labels))
	}
	for s.i < s.n {
		if s.intr.stop() { // cancellation checkpoint: once per batch
			return nil, false
		}
		n := min(s.n-s.i, BatchSize)
		out := s.out
		out.reset()
		out.n = n
		for c, src := range s.src {
			col := out.cols[c][:n]
			for r, v := range src[s.i : s.i+n] {
				col[r] = dict.ID(v)
			}
		}
		s.i += n
		for _, pair := range s.eq {
			compactEqCols(out, out.cols[pair[0]], out.cols[pair[1]])
		}
		if out.live() > 0 {
			return out, true
		}
	}
	return nil, false
}

// compactEqCols narrows the batch's selection to rows where the two columns
// are equal — the branch-free store-always/advance-on-pass compaction.
func compactEqCols(b *batch, c0, c1 []dict.ID) {
	if b.sel == nil {
		sel := b.selStorage()
		k := 0
		for i := 0; i < b.n; i++ {
			sel[k] = int32(i)
			if c0[i] == c1[i] {
				k++
			}
		}
		b.sel = sel[:k]
		return
	}
	sel := b.sel
	k := 0
	for _, i := range sel {
		sel[k] = i
		if c0[i] == c1[i] {
			k++
		}
	}
	b.sel = sel[:k]
}

// compactConstCol narrows the batch's selection to rows where the column
// equals the constant.
func compactConstCol(b *batch, c0 []dict.ID, v dict.ID) {
	if b.sel == nil {
		sel := b.selStorage()
		k := 0
		for i := 0; i < b.n; i++ {
			sel[k] = int32(i)
			if c0[i] == v {
				k++
			}
		}
		b.sel = sel[:k]
		return
	}
	sel := b.sel
	k := 0
	for _, i := range sel {
		sel[k] = i
		if c0[i] == v {
			k++
		}
	}
	b.sel = sel[:k]
}

// filterOp applies equality conditions (σ) by narrowing each input batch's
// selection vector in place — no data moves, failing rows just drop out of
// sel.
type filterOp struct {
	in    operator
	tests []condTest
	conds []algebra.Cond // what tests were compiled from, for Explain
	est   float64
}

func (f *filterOp) cols() []cq.Term { return f.in.cols() }
func (f *filterOp) close()          { closeOp(f.in) }

func (f *filterOp) nextBatch() (*batch, bool) {
	for {
		b, ok := f.in.nextBatch()
		if !ok {
			return nil, false
		}
		for _, t := range f.tests {
			if t.ri < 0 {
				compactConstCol(b, b.cols[t.li], t.c)
			} else {
				compactEqCols(b, b.cols[t.li], b.cols[t.ri])
			}
		}
		if b.live() > 0 {
			return b, true
		}
	}
}

// projectOp is π with set semantics — the one place operators eliminate
// duplicates. It restricts/reorders its input's columns onto labels (constant
// labels project as constant columns) and, when distinct, keeps only rows not
// seen before, emitting dense batches; the seen rows are a RowIndex over a
// 32-bit Relation of its output columns. It is a rewriting's Project node,
// every union (newUnion: the dedup of concatenated branches, columns
// unchanged), a store-side plan's head, which skips the dedup when the head
// exposes every body variable, and ProjectStream's permutation, which never
// dedups. Resume state (the current input batch and position) lets a
// projection span output batches.
type projectOp struct {
	in       operator
	labels   []cq.Term
	idx      []int // per output column: input column, or -1 for a constant label
	distinct bool
	union    bool    // the dedup of a union's branches, which Explain renders instead
	est      float64 // estimated input rows: sizes the dedup set on first use

	scratch Row
	seen    *RowIndex
	b       *batch
	sel     []int32
	si      int
	out     *batch
}

func newProjectOp(in operator, colLabels []cq.Term, est float64) (*projectOp, error) {
	inCols := in.cols()
	idx := make([]int, len(colLabels))
	for i, c := range colLabels {
		if c.IsConst() {
			idx[i] = -1
			continue
		}
		j := termIndex(inCols, c)
		if j < 0 {
			return nil, fmt.Errorf("engine: projection column %v not in %v", c, inCols)
		}
		idx[i] = j
	}
	return &projectOp{in: in, labels: colLabels, idx: idx, distinct: true, est: est}, nil
}

func (p *projectOp) cols() []cq.Term { return p.labels }

func (p *projectOp) close() {
	p.out.release()
	p.out = nil
	closeOp(p.in)
}

// open allocates the output batch and, for a dedup, the set and the scratch
// row candidates are assembled in; constant columns are written once.
func (p *projectOp) open() {
	p.out = newBatch(len(p.idx))
	if p.distinct {
		p.seen = newRowIndexSized(NewRelation(p.labels), distinctSizeHint(p.est))
		p.scratch = make(Row, len(p.idx))
	}
	for c, j := range p.idx {
		if j >= 0 {
			continue
		}
		v := p.labels[c].ConstID()
		if p.distinct {
			p.scratch[c] = v
			continue
		}
		col := p.out.cols[c]
		for i := range col {
			col[i] = v
		}
	}
}

func (p *projectOp) nextBatch() (*batch, bool) {
	if p.out == nil {
		p.open()
	}
	out := p.out
	out.reset()
	if !p.distinct {
		// Every input row survives: one columnar gather per input batch.
		b, ok := p.in.nextBatch()
		if !ok {
			return nil, false
		}
		sel := b.liveSel()
		for c, j := range p.idx {
			if j < 0 {
				continue
			}
			dst, src := out.cols[c], b.cols[j]
			for k, i := range sel {
				dst[k] = src[i]
			}
		}
		out.n = len(sel)
		return out, true
	}
	for {
		if p.b == nil || p.si >= len(p.sel) {
			b, ok := p.in.nextBatch()
			if !ok {
				p.b = nil
				if out.n > 0 {
					return out, true
				}
				return nil, false
			}
			p.b, p.sel, p.si = b, b.liveSel(), 0
		}
		for p.si < len(p.sel) {
			if out.n == BatchSize {
				return out, true
			}
			i := p.sel[p.si]
			p.si++
			for c, j := range p.idx {
				if j >= 0 {
					p.scratch[c] = p.b.cols[j][i]
				}
			}
			if p.seen.Add(p.scratch) {
				k := out.n
				for c, v := range p.scratch {
					out.cols[c][k] = v
				}
				out.n = k + 1
			}
		}
	}
}

// newUnion is the one union operator, whichever way a union is asked for — a
// rewriting's Union node (compileRel) or a union of streams (UnionStreams):
// the branches concatenated under a deduplicating projectOp that keeps their
// columns, its set sized by the sum of the branch estimates with floor as the
// minimum. The concatenation stops once any of intrs has fired.
func newUnion(branches []operator, floor float64, intrs interrupts) (*projectOp, error) {
	if len(branches) == 0 {
		return nil, fmt.Errorf("engine: empty union")
	}
	src := &concatOp{branches: branches, intrs: intrs}
	w := len(branches[0].cols())
	for _, b := range branches {
		if len(b.cols()) != w {
			return nil, fmt.Errorf("engine: union arity mismatch: %d vs %d", len(b.cols()), w)
		}
		src.est += estOf(b)
	}
	op := &projectOp{in: src, labels: src.cols(), idx: make([]int, w), distinct: true, union: true,
		est: max(floor, src.est)}
	for c := range op.idx {
		op.idx[c] = c
	}
	return op, nil
}

// estOf is a tree root's estimated output rows: the estimate compileRel
// returns beside the operator, or a store plan's head projection's.
func estOf(o operator) float64 {
	switch o := o.(type) {
	case *viewScanOp:
		return o.est
	case *filterOp:
		return o.est
	case *projectOp:
		return o.est
	case *hashJoinOp:
		return o.est
	}
	return 0
}

// concatOp streams its branches one after another (∪ before its dedup);
// columns are aligned positionally and labeled by the first branch. A branch
// that stops at a fired cancellation token ends the concatenation: a union
// of streams polls one token per member, and the next member's would count
// the same cancellation again.
type concatOp struct {
	branches []operator
	intrs    interrupts
	bi       int
	est      float64
}

func (u *concatOp) cols() []cq.Term { return u.branches[0].cols() }

func (u *concatOp) close() {
	for _, b := range u.branches {
		closeOp(b)
	}
}

func (u *concatOp) nextBatch() (*batch, bool) {
	for ; u.bi < len(u.branches) && !u.intrs.fired(); u.bi++ {
		if b, ok := u.branches[u.bi].nextBatch(); ok {
			return b, true
		}
	}
	return nil, false
}

// hashJoinOp is the hash join. The build side drains into rows chained
// through an idTable by key hash; the probe side's batches are hashed
// columnar with all chain heads fetched in one getBatch call. Output columns
// are always the left columns followed by the kept right columns, and output
// order is the probe side's, whichever side builds — the contract the
// planner's sort-order bookkeeping relies on. One probe batch is peeked
// before the build: a zero-row probe side makes the join empty, so the
// (possibly huge) build side is never drained.
type hashJoinOp struct {
	left, right operator
	shape       joinShapeInfo
	buildLeft   bool
	bIdx, pIdx  []int   // key columns, build side and probe side, pairwise
	buildEst    float64 // estimated build-side rows: pre-sizes a drained build
	est         float64 // estimated output rows
	intr        *interrupt

	built bool
	eof   bool
	t     *joinTable
	out   *batch

	// Probe state: beginProbe hashes a probe batch and fetches its chain
	// heads; fill emits the matches, resuming across output batches, so a
	// probe row's chain can span them.
	b        *batch
	sel      []int32
	k        int   // next probe row, as an index into sel
	row      int   // current probe row while a chain is being emitted
	chain    int32 // rest of the current chain; 0 = none
	hashes   []uint64
	heads    []int32
	matchBuf []int32 // verified chain matches, collected before columnar emit
}

// newHashJoinOp compiles a join of two inputs estimated at lest and rest rows
// into est.
func newHashJoinOp(left, right operator, shape joinShapeInfo, buildLeft bool, lest, rest, est float64, intr *interrupt) *hashJoinOp {
	j := &hashJoinOp{left: left, right: right, shape: shape, buildLeft: buildLeft, buildEst: rest, est: est, intr: intr,
		bIdx: make([]int, len(shape.keys)), pIdx: make([]int, len(shape.keys))}
	if buildLeft {
		j.buildEst = lest
	}
	for i, k := range shape.keys {
		j.bIdx[i], j.pIdx[i] = k.ri, k.li
		if buildLeft {
			j.bIdx[i], j.pIdx[i] = k.li, k.ri
		}
	}
	return j
}

func (j *hashJoinOp) cols() []cq.Term { return j.shape.outCols }

// joinTable is a hash join's build side: its rows' 32-bit column slabs —
// borrowed from an extent, or drained into a Relation — chained by key hash
// through one table.
type joinTable struct {
	cols   [][]uint32 // cols[c][r] is build row r's value in column c
	hashes []uint64   // per row, until linked
	table  *idTable   // key hash -> chain head, as row index + 1
	chains []int32    // collision chain, same encoding as the table
}

// at returns build row r's value in column c.
func (t *joinTable) at(r int32, c int) dict.ID { return dict.ID(t.cols[c][r]) }

// gatherBuild drains the build side into column slabs and hashes their keys.
func (j *hashJoinOp) gatherBuild(in operator) *joinTable {
	t := &joinTable{}
	var n int
	if s, ok := in.(*viewScanOp); ok && len(s.eq) == 0 && s.i == 0 {
		// Straight from the extent: the scan only relabels columns, so its
		// columns hash and chain as they are stored — no batch copies.
		t.cols, n = s.src, s.n
		s.i = n
	} else {
		rel, hint := NewRelation(in.cols()), distinctSizeHint(j.buildEst)
		for c := range rel.vals {
			rel.vals[c] = make([]uint32, 0, hint)
		}
		for b, ok := in.nextBatch(); ok; b, ok = in.nextBatch() {
			rel.appendBatch(b, b.liveSel())
		}
		t.cols, n = rel.vals, rel.n
	}
	t.hashes = make([]uint64, n)
	for lo := 0; lo < n; lo += BatchSize {
		// Cancellation checkpoint: this loop walks the whole build side with
		// no batch boundary to poll at.
		if j.intr.stop() {
			t.hashes = t.hashes[:lo]
			break
		}
		hashExtent(t.hashes[lo:min(lo+BatchSize, n)], t.cols, lo, j.bIdx)
	}
	return t
}

// hashExtent hashes the given columns of extent rows lo.. into hashes,
// column by column, consistently with hashColumns.
func hashExtent(hashes []uint64, ext [][]uint32, lo int, idx []int) {
	for k := range hashes {
		hashes[k] = hashSeed
	}
	for _, c := range idx {
		for k, v := range ext[c][lo : lo+len(hashes)] {
			hashes[k] = hashMix(hashes[k], uint64(v))
		}
	}
}

// hashColumns hashes the given columns of the batch's selected rows, column by
// column, consistently with hashExtent so build and probe sides agree.
func hashColumns(hashes []uint64, b *batch, sel []int32, idx []int) {
	for k := range hashes {
		hashes[k] = hashSeed
	}
	for _, c := range idx {
		col := b.cols[c]
		for k, i := range sel {
			hashes[k] = hashMix(hashes[k], uint64(col[i]))
		}
	}
}

// link chains the gathered rows through the table by key hash.
func (t *joinTable) link() {
	t.chains = make([]int32, len(t.hashes))
	t.table = newIDTable(len(t.hashes))
	for r, h := range t.hashes {
		t.chains[r] = t.table.get(h)
		t.table.put(h, int32(r+1))
	}
	t.hashes = nil
}

// beginProbe hashes the key columns of every live row of the probe batch and
// fetches all chain heads in one batched table probe.
func (j *hashJoinOp) beginProbe(b *batch) {
	j.b, j.sel, j.k = b, b.liveSel(), 0
	// Scratch sizes track the largest probe batch seen (≤ BatchSize): a
	// selective probe stream should not pay for full-batch scratch.
	if cap(j.hashes) < len(j.sel) {
		j.hashes = make([]uint64, len(j.sel))
		j.heads = make([]int32, len(j.sel))
	}
	hashes, heads := j.hashes[:len(j.sel)], j.heads[:len(j.sel)]
	hashColumns(hashes, b, j.sel, j.pIdx)
	j.t.table.getBatch(hashes, heads)
}

// fill appends joined rows to out until it is full (true) or the probe batch
// is exhausted (false).
func (j *hashJoinOp) fill(out *batch) bool {
	for {
		if j.chain != 0 {
			j.emitChain(out)
			if out.n == BatchSize {
				return true
			}
		}
		if j.k >= len(j.sel) {
			return false
		}
		j.row, j.chain = int(j.sel[j.k]), j.heads[j.k]
		j.k++
	}
}

// emitChain walks the current probe row's collision chain in two phases:
// verified matches are first collected into a scratch index run, then emitted
// column-at-a-time — the probe row's values (left values under build=right,
// kept right values under build=left) are constant across the run, so their
// columns are fills and the build rows' columns gathers. Emission stops when
// the chain or the output batch is exhausted.
func (j *hashJoinOp) emitChain(out *batch) {
	t := j.t
	cols, prow := j.b.cols, j.row
	if j.matchBuf == nil {
		j.matchBuf = make([]int32, 0, 16)
	}
	free := BatchSize - out.n
	run := j.matchBuf[:0]
	for j.chain != 0 && len(run) < free {
		c := j.chain - 1
		j.chain = t.chains[c]
		match := true
		for x, pc := range j.pIdx {
			if cols[pc][prow] != t.at(c, j.bIdx[x]) {
				match = false
				break
			}
		}
		if match {
			run = append(run, c)
		}
	}
	if g := len(run); g > 0 {
		k := out.n
		nl := len(j.shape.outCols) - len(j.shape.rightKeep)
		for c := 0; c < nl; c++ {
			dst := out.cols[c][k : k+g]
			if j.buildLeft {
				for x, r := range run {
					dst[x] = t.at(r, c)
				}
				continue
			}
			v := cols[c][prow]
			for x := range dst {
				dst[x] = v
			}
		}
		for i, ri := range j.shape.rightKeep {
			dst := out.cols[nl+i][k : k+g]
			if j.buildLeft {
				v := cols[ri][prow]
				for x := range dst {
					dst[x] = v
				}
				continue
			}
			for x, r := range run {
				dst[x] = t.at(r, ri)
			}
		}
		out.n = k + g
	}
	j.matchBuf = run[:0] // keep any growth for the next chain
}

func (j *hashJoinOp) close() {
	j.out.release()
	j.out = nil
	closeOp(j.left)
	closeOp(j.right)
}

func (j *hashJoinOp) nextBatch() (*batch, bool) {
	if j.eof {
		return nil, false
	}
	build, probe := j.right, j.left
	if j.buildLeft {
		build, probe = j.left, j.right
	}
	if !j.built {
		b, ok := probe.nextBatch()
		if !ok {
			j.eof = true
			return nil, false
		}
		j.t = j.gatherBuild(build)
		if len(j.t.hashes) == 0 {
			j.eof = true
			return nil, false
		}
		j.t.link()
		j.built = true
		j.beginProbe(b)
		j.out = newBatch(len(j.shape.outCols))
	}
	out := j.out
	out.reset()
	for !j.fill(out) {
		b, ok := probe.nextBatch()
		if !ok {
			// Latched only once nothing is left to hand out, so the probe's
			// cancellation checkpoint is polled again after the final rows.
			j.eof = out.n == 0
			break
		}
		j.beginProbe(b)
	}
	return out, out.n > 0
}
