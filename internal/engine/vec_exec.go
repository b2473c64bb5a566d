package engine

import (
	"fmt"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// The rewriting executor: relational batch operators over materialized view
// extents, sharing the batch/selection-vector machinery of batch.go with the
// store-side engine. Columns are indexed by position in the operator's cols()
// labeling (not by register slot), so a batch's width is the operator's
// arity. View-extent scans transpose row-major extents into column batches;
// filters narrow selection vectors in place without moving data; hash joins
// hash whole key columns and fetch chain heads with one getBatch call per
// probe batch. ExecuteWithOptions and ExecuteStream (stream.go) drain it.

// vrop is a pull-based relational operator yielding column batches. Returned
// batches always have at least one live row and are valid until the next
// nextBatch call.
type vrop interface {
	cols() []cq.Term
	nextBatch() (*batch, bool)
}

// splitVecRel splits an operator into independent substreams for parallel
// draining, or nil when the operator does not support splitting.
func splitVecRel(o vrop, parts int) []vrop {
	if parts <= 1 {
		return nil
	}
	if s, ok := o.(interface{ splitVec(int) []vrop }); ok {
		return s.splitVec(parts)
	}
	return nil
}

// vecSink is an optional root fast path: a deduplicating operator whose
// surviving rows are already materialized contiguously (its rowSet's arena
// copies) appends them straight into the output relation, skipping the final
// columnar transpose and the re-gather below.
type vecSink interface {
	drainInto(out *Relation)
}

// compileVecRel compiles a plan node to its batch operator and the node's
// estimated output cardinality. Leaf estimates are exact (the resolved
// extents' row counts); inner estimates use the same containment-style
// arithmetic the store planner uses. The estimates drive the hash joins'
// cost-chosen build sides, the dedup size hints and the parallel-operator
// thresholds.
func compileVecRel(p algebra.Plan, resolve ViewResolver, opts ExecOptions) (vrop, float64, error) {
	switch n := p.(type) {
	case *algebra.Scan:
		base, err := resolve(n.View)
		if err != nil {
			return nil, 0, err
		}
		if len(n.Cols) != base.Arity() {
			return nil, 0, fmt.Errorf("engine: scan of v%d relabels %d columns, view has %d",
				int(n.View), len(n.Cols), base.Arity())
		}
		eq := repeatedLabelPairs(n.Cols)
		op := &vecRelScanOp{view: n.View, rows: base.Rows, labels: n.Cols, eq: eq, intr: opts.intr}
		return op, scanEst(float64(len(base.Rows)), len(eq)), nil
	case *algebra.Select:
		in, est, err := compileVecRel(n.Input, resolve, opts)
		if err != nil {
			return nil, 0, err
		}
		tests, err := compileConds(in.cols(), n.Conds)
		if err != nil {
			return nil, 0, err
		}
		return &vecFilterOp{in: in, tests: tests}, condsEst(est, len(n.Conds)), nil
	case *algebra.Project:
		in, est, err := compileVecRel(n.Input, resolve, opts)
		if err != nil {
			return nil, 0, err
		}
		// A filter over a large splittable extent feeds the deduplicating
		// projection through an exchange: the predicate work fans out over
		// DOP workers while the dedup stays at the (serial) consumer.
		if opts.DOP > 1 && est >= parallelRewriteMinRows {
			if f, ok := in.(*vecFilterOp); ok {
				if parts := splitVecRel(f, opts.DOP); parts != nil {
					in = newVecRelExchange(f.cols(), parts, opts.DOP, opts.intr)
				}
			}
		}
		op, err := newVecProjectOp(in, n.Cols, distinctSizeHint(est))
		if err != nil {
			return nil, 0, err
		}
		return op, est, nil
	case *algebra.Join:
		left, lest, err := compileVecRel(n.Left, resolve, opts)
		if err != nil {
			return nil, 0, err
		}
		right, rest, err := compileVecRel(n.Right, resolve, opts)
		if err != nil {
			return nil, 0, err
		}
		shape, err := joinShape(left.cols(), right.cols(), n.Conds)
		if err != nil {
			return nil, 0, err
		}
		lIdx := make([]int, len(shape.keys))
		rIdx := make([]int, len(shape.keys))
		for i, k := range shape.keys {
			lIdx[i], rIdx[i] = k.li, k.ri
		}
		buildLeft := cost.HashJoinBuildLeft(lest, rest)
		est := joinOutEst(lest, rest, len(shape.keys))
		if opts.DOP > 1 && lest+rest >= parallelRewriteMinRows {
			return newVecParallelHashJoin(left, right, shape, lIdx, rIdx, buildLeft, opts.DOP, opts.intr), est, nil
		}
		return &vecHashJoinRelOp{left: left, right: right, shape: shape, lIdx: lIdx, rIdx: rIdx,
			buildLeft: buildLeft, leftWidth: len(left.cols()), intr: opts.intr}, est, nil
	case *algebra.Union:
		if len(n.Branches) == 0 {
			return nil, 0, fmt.Errorf("engine: empty union")
		}
		branches := make([]vrop, len(n.Branches))
		sum := 0.0
		for i, b := range n.Branches {
			in, est, err := compileVecRel(b, resolve, opts)
			if err != nil {
				return nil, 0, err
			}
			if i > 0 && len(in.cols()) != len(branches[0].cols()) {
				return nil, 0, fmt.Errorf("engine: union arity mismatch: %d vs %d",
					len(in.cols()), len(branches[0].cols()))
			}
			branches[i] = in
			sum += est
		}
		hint := distinctSizeHint(sum)
		if opts.DOP > 1 && len(branches) > 1 && sum >= parallelRewriteMinRows {
			return newVecParallelUnion(branches, hint, opts.DOP, opts.intr), sum, nil
		}
		return &vecUnionOp{branches: branches, seen: newRowSet(hint)}, sum, nil
	default:
		return nil, 0, fmt.Errorf("engine: unknown plan node %T", p)
	}
}

// vecRelScanOp streams a materialized view's rows as column batches under the
// scan's relabeling: each batch is one transpose of up to BatchSize extent
// rows, with repeated-label equality filters compacted into the selection.
type vecRelScanOp struct {
	view   algebra.ViewID
	rows   []Row
	labels []cq.Term
	eq     [][2]int
	intr   *interrupt
	i      int
	out    *batch
}

func (s *vecRelScanOp) cols() []cq.Term { return s.labels }

func (s *vecRelScanOp) close() {
	s.out.release()
	s.out = nil
}

func (s *vecRelScanOp) nextBatch() (*batch, bool) {
	w := len(s.labels)
	if s.out == nil {
		s.out = newBatch(w)
	}
	for s.i < len(s.rows) {
		if s.intr.stop() { // cancellation checkpoint: once per transposed batch
			return nil, false
		}
		n := len(s.rows) - s.i
		if n > BatchSize {
			n = BatchSize
		}
		rows := s.rows[s.i : s.i+n]
		s.i += n
		out := s.out
		out.reset()
		out.n = n
		for c := 0; c < w; c++ {
			col := out.cols[c]
			for r, row := range rows {
				col[r] = row[c]
			}
		}
		for _, pair := range s.eq {
			compactEqCols(out, out.cols[pair[0]], out.cols[pair[1]])
		}
		if out.live() > 0 {
			return out, true
		}
	}
	return nil, false
}

// splitVec partitions the remaining rows into contiguous ranges, one sub-scan
// per part, for parallel draining.
func (s *vecRelScanOp) splitVec(parts int) []vrop {
	rows := s.rows[s.i:]
	if parts > len(rows) {
		parts = len(rows)
	}
	if parts <= 1 {
		return nil
	}
	out := make([]vrop, parts)
	for p := 0; p < parts; p++ {
		lo, hi := p*len(rows)/parts, (p+1)*len(rows)/parts
		out[p] = &vecRelScanOp{view: s.view, rows: rows[lo:hi], labels: s.labels, eq: s.eq, intr: s.intr}
	}
	return out
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

// vecFilterOp applies equality conditions (σ) by narrowing each input batch's
// selection vector in place — no data moves, failing rows just drop out of
// sel.
type vecFilterOp struct {
	in    vrop
	tests []condTest
}

func (f *vecFilterOp) cols() []cq.Term { return f.in.cols() }
func (f *vecFilterOp) close()          { closeVop(f.in) }

func (f *vecFilterOp) nextBatch() (*batch, bool) {
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

// splitVec distributes the filter over its input's split streams.
func (f *vecFilterOp) splitVec(parts int) []vrop {
	ins := splitVecRel(f.in, parts)
	if ins == nil {
		return nil
	}
	out := make([]vrop, len(ins))
	for i, in := range ins {
		out[i] = &vecFilterOp{in: in, tests: f.tests}
	}
	return out
}

// vecProjectOp restricts/reorders columns (π) and eliminates duplicates,
// emitting dense batches of the surviving rows. Resume state (the current
// input batch and position) lets a projection span output batches.
type vecProjectOp struct {
	in      vrop
	labels  []cq.Term
	idx     []int // -1 for constant labels
	scratch Row
	seen    *rowSet

	b   *batch
	sel []int32
	si  int
	out *batch
}

func newVecProjectOp(in vrop, colLabels []cq.Term, sizeHint int) (*vecProjectOp, error) {
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
	return &vecProjectOp{
		in:      in,
		labels:  append([]cq.Term(nil), colLabels...),
		idx:     idx,
		scratch: make(Row, len(colLabels)),
		seen:    newRowSet(sizeHint),
	}, nil
}

func (p *vecProjectOp) cols() []cq.Term { return p.labels }

func (p *vecProjectOp) close() {
	p.out.release()
	p.out = nil
	closeVop(p.in)
}

func (p *vecProjectOp) nextBatch() (*batch, bool) {
	if p.out == nil {
		p.out = newBatch(len(p.labels))
	}
	out := p.out
	out.reset()
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
				if j < 0 {
					p.scratch[c] = p.labels[c].ConstID()
				} else {
					p.scratch[c] = p.b.cols[j][i]
				}
			}
			if _, added := p.seen.addCopy(p.scratch); added {
				k := out.n
				for c := range p.idx {
					out.cols[c][k] = p.scratch[c]
				}
				out.n = k + 1
			}
		}
	}
}

// drainInto is the vecSink fast path: projected rows surviving the dedup set
// go straight into the relation, with no output batch in between.
func (p *vecProjectOp) drainInto(out *Relation) {
	for {
		if p.b == nil || p.si >= len(p.sel) {
			b, ok := p.in.nextBatch()
			if !ok {
				p.b = nil
				return
			}
			p.b, p.sel, p.si = b, b.liveSel(), 0
		}
		for p.si < len(p.sel) {
			i := p.sel[p.si]
			p.si++
			for c, j := range p.idx {
				if j < 0 {
					p.scratch[c] = p.labels[c].ConstID()
				} else {
					p.scratch[c] = p.b.cols[j][i]
				}
			}
			if kept, added := p.seen.addCopy(p.scratch); added {
				out.Rows = append(out.Rows, kept)
			}
		}
	}
}

// vecHashJoinRelOp hash-joins two batch streams: the cost-chosen build side
// drains into arena rows chained through an idTable, and the probe side's
// batches are hashed columnar with all chain heads fetched in one getBatch
// call. One probe batch is peeked before the build, preserving the
// empty-probe fast path. Output columns are always the left columns followed
// by the kept right columns, whichever side builds.
type vecHashJoinRelOp struct {
	left, right vrop
	shape       joinShapeInfo
	lIdx, rIdx  []int
	buildLeft   bool
	leftWidth   int
	intr        *interrupt

	built  bool
	eof    bool
	table  *idTable
	brows  []Row   // build-side rows (gathered arena copies)
	chains []int32 // collision chain, same encoding as table

	pending  *batch // peeked probe batch, replayed first
	pb       *batch
	psel     []int32
	pi       int
	prow     int32
	chain    int32
	emitting bool
	hashes   []uint64
	heads    []int32
	matchBuf []int32 // verified chain matches, collected before columnar emit
	out      *batch
}

func (j *vecHashJoinRelOp) cols() []cq.Term { return j.shape.outCols }

func (j *vecHashJoinRelOp) close() {
	j.out.release()
	j.out = nil
	closeVop(j.left)
	closeVop(j.right)
}

// buildSide/probeSide orient the operator around its chosen build side.
func (j *vecHashJoinRelOp) buildSide() (vrop, []int) {
	if j.buildLeft {
		return j.left, j.lIdx
	}
	return j.right, j.rIdx
}

func (j *vecHashJoinRelOp) probeSide() (vrop, []int) {
	if j.buildLeft {
		return j.right, j.rIdx
	}
	return j.left, j.lIdx
}

func (j *vecHashJoinRelOp) build() {
	in, idx := j.buildSide()
	if s, ok := in.(*vecRelScanOp); ok && len(s.eq) == 0 && s.i == 0 {
		// Build straight from the extent: the scan only relabels columns, so
		// its rows hash and chain as-is — no batch transpose, no arena copies.
		rows := s.rows
		s.i = len(rows)
		j.table = newIDTable(len(rows))
		j.brows = rows
		j.chains = make([]int32, len(rows))
		for r, row := range rows {
			// Cancellation checkpoint: the zero-copy build walks the whole
			// extent with no batch boundary to poll at.
			if r&(BatchSize-1) == 0 && j.intr.stop() {
				break
			}
			h := hashValues(row, idx)
			j.chains[r] = j.table.get(h)
			j.table.put(h, int32(r+1))
		}
	} else {
		j.table = newIDTable(64)
		var arena rowArena
		w := len(in.cols())
		for {
			b, ok := in.nextBatch()
			if !ok {
				break
			}
			for _, i := range b.liveSel() {
				row := arena.alloc(w)
				for c := 0; c < w; c++ {
					row[c] = b.cols[c][i]
				}
				h := hashValues(row, idx)
				j.brows = append(j.brows, row)
				j.chains = append(j.chains, j.table.get(h))
				j.table.put(h, int32(len(j.brows)))
			}
		}
	}
	j.out = newBatch(len(j.shape.outCols))
	j.built = true
}

// probeHash hashes the key columns of every live probe row and fetches all
// chain heads in one batched table probe.
func (j *vecHashJoinRelOp) probeHash(b *batch, pIdx []int) {
	sel := j.psel
	// Scratch sizes track the largest probe batch seen (≤ BatchSize): a
	// selective probe stream should not pay for full-batch scratch.
	if cap(j.hashes) < len(sel) {
		j.hashes = make([]uint64, len(sel))
		j.heads = make([]int32, len(sel))
	}
	hashes := j.hashes[:len(sel)]
	for i := range hashes {
		hashes[i] = hashSeed
	}
	for _, c := range pIdx {
		col := b.cols[c]
		for k, i := range sel {
			hashes[k] = hashMix(hashes[k], uint64(col[i]))
		}
	}
	j.table.getBatch(hashes, j.heads[:len(sel)])
}

func (j *vecHashJoinRelOp) nextBatch() (*batch, bool) {
	if j.eof {
		return nil, false
	}
	probe, pIdx := j.probeSide()
	if !j.built {
		// Peek one probe batch before building: a zero-row probe extent makes
		// the join empty, so the (possibly huge) build side is never drained.
		b, ok := probe.nextBatch()
		if !ok {
			j.eof = true
			return nil, false
		}
		j.pending = b
		j.build()
	}
	out := j.out
	out.reset()
	for {
		if j.emitting {
			j.emitChain(out)
			if out.n == BatchSize {
				return out, true
			}
		}
		if j.pb == nil || j.pi >= len(j.psel) {
			var b *batch
			var ok bool
			if j.pending != nil {
				b, ok, j.pending = j.pending, true, nil
			} else {
				b, ok = probe.nextBatch()
			}
			if !ok {
				j.pb = nil
				j.eof = out.n == 0
				if out.n > 0 {
					return out, true
				}
				return nil, false
			}
			j.pb, j.psel, j.pi = b, b.liveSel(), 0
			j.probeHash(b, pIdx)
			continue
		}
		k := j.pi
		j.pi++
		if j.heads[k] == 0 {
			continue
		}
		j.prow = j.psel[k]
		j.chain = j.heads[k]
		j.emitting = true
	}
}

// emitChain walks the current probe row's collision chain in two phases:
// verified matches are first collected into a scratch index run, then emitted
// column-at-a-time — the probe row's values (left values under build=right,
// kept right values under build=left) are constant across the run, so their
// columns are fills and the build rows' columns gathers. Emission stops when
// the chain or the output batch is exhausted.
func (j *vecHashJoinRelOp) emitChain(out *batch) {
	cols := j.pb.cols
	prow := int(j.prow)
	if j.matchBuf == nil {
		j.matchBuf = make([]int32, 0, 16)
	}
	free := BatchSize - out.n
	run := j.matchBuf[:0]
	for j.chain != 0 && len(run) < free {
		c := j.chain - 1
		brow := j.brows[c]
		j.chain = j.chains[c]
		match := true
		for _, key := range j.shape.keys {
			if j.buildLeft {
				if cols[key.ri][prow] != brow[key.li] {
					match = false
					break
				}
			} else if cols[key.li][prow] != brow[key.ri] {
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
		if j.buildLeft {
			for c := 0; c < j.leftWidth; c++ {
				dst := out.cols[c][k : k+g]
				for i, r := range run {
					dst[i] = j.brows[r][c]
				}
			}
			for i, ri := range j.shape.rightKeep {
				dst := out.cols[j.leftWidth+i][k : k+g]
				v := cols[ri][prow]
				for x := range dst {
					dst[x] = v
				}
			}
		} else {
			for c := 0; c < j.leftWidth; c++ {
				dst := out.cols[c][k : k+g]
				v := cols[c][prow]
				for x := range dst {
					dst[x] = v
				}
			}
			for i, ri := range j.shape.rightKeep {
				dst := out.cols[j.leftWidth+i][k : k+g]
				for x, r := range run {
					dst[x] = j.brows[r][ri]
				}
			}
		}
		out.n = k + g
	}
	j.matchBuf = run[:0] // keep any growth for the next chain
	j.emitting = j.chain != 0
}

// vecUnionOp streams the set union of its branches (∪), deduplicating across
// branches into dense output batches; columns are aligned positionally and
// labeled by the first branch.
type vecUnionOp struct {
	branches []vrop
	bi       int
	seen     *rowSet
	scratch  Row

	b   *batch
	sel []int32
	si  int
	out *batch
}

func (u *vecUnionOp) cols() []cq.Term { return u.branches[0].cols() }

func (u *vecUnionOp) close() {
	u.out.release()
	u.out = nil
	for _, b := range u.branches {
		closeVop(b)
	}
}

// drainInto is the vecSink fast path: rows surviving the cross-branch dedup
// set go straight into the relation, with no output batch in between.
func (u *vecUnionOp) drainInto(out *Relation) {
	w := len(u.cols())
	if u.scratch == nil {
		u.scratch = make(Row, w)
	}
	for {
		if u.b == nil || u.si >= len(u.sel) {
			u.b = nil
			for u.bi < len(u.branches) {
				b, ok := u.branches[u.bi].nextBatch()
				if ok {
					u.b, u.sel, u.si = b, b.liveSel(), 0
					break
				}
				u.bi++
			}
			if u.b == nil {
				return
			}
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

func (u *vecUnionOp) nextBatch() (*batch, bool) {
	w := len(u.cols())
	if u.out == nil {
		u.out = newBatch(w)
		u.scratch = make(Row, w)
	}
	out := u.out
	out.reset()
	for {
		if u.b == nil || u.si >= len(u.sel) {
			u.b = nil
			for u.bi < len(u.branches) {
				b, ok := u.branches[u.bi].nextBatch()
				if ok {
					u.b, u.sel, u.si = b, b.liveSel(), 0
					break
				}
				u.bi++
			}
			if u.b == nil {
				if out.n > 0 {
					return out, true
				}
				return nil, false
			}
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
