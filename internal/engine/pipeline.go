package engine

import (
	"sort"
	"sync"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// The store-side half of the operator set (operators.go has the shared half):
// the IndexScan leaf and the two order-aware operators only store-side
// pipelines use — permutation cursors arrive sorted, view extents do not — as
// chosen by the planner in planner.go:
//
//   - scanOp (IndexScan): one permutation range of a routed store.Reader, its
//     columns the atom's distinct variables;
//   - mergeJoinOp: joins a pipeline sorted on one column with an atom cursor
//     sorted on the matching triple position, buffering one equal-key run of
//     the right side at a time; further shared variables are residual
//     equality checks against each group triple;
//   - sortOp: materializes the pipeline and re-emits it ordered by one column
//     — the sort-break operator that makes merge joins available again
//     further down a chain.
//
// The planner numbers a query's variables in pipeline binding order, so a
// pipeline's columns after any step are a prefix of QueryPlan.slotTerms — the
// register file is the positional layout — and a hash-join step (or the
// Cartesian product a disconnected query requires) is a natural join of the
// pipeline with an IndexScan leaf. The head projection at the root is the
// shared projectOp.

// trisFree recycles the BatchSize triple buffers that scans, builds and the
// merge join's inner cursor decode into.
var trisFree sync.Pool

func getTris() []store.Triple {
	if v := trisFree.Get(); v != nil {
		return v.([]store.Triple)
	}
	return make([]store.Triple, BatchSize)
}

func putTris(t []store.Triple) {
	if t != nil {
		//lint:ignore SA6002 one boxing alloc per op close is cheaper than a wrapper type
		trisFree.Put(t)
	}
}

// triCursor pulls triples one at a time through a batched decode buffer:
// group-building consumers keep their row-at-a-time control flow while the
// cursor pays one NextBatch call per buffer instead of a call chain per
// triple.
type triCursor struct {
	cur  store.Cursor
	u    *unionCursor // a union leaf's merged cursor, read instead of cur
	buf  []store.Triple
	i, n int
	lim  int // fill limit: ramps up per refill, resets small after a seek
}

// triCursorRamp is the first refill size. A merge consumer often needs only
// one key group per probe — decoding the full buffer up front would cost a
// thousand-triple gather to read a handful — so fills start small and double,
// converging on full-buffer decodes for genuinely long streams.
const triCursorRamp = 32

func (c *triCursor) next() (store.Triple, bool) {
	if c.i >= c.n {
		if c.lim < triCursorRamp {
			c.lim = triCursorRamp
		}
		if c.lim > len(c.buf) {
			c.lim = len(c.buf)
		}
		if c.u != nil {
			c.n = c.u.NextBatch(c.buf[:c.lim])
		} else {
			c.n = c.cur.NextBatch(c.buf[:c.lim])
		}
		c.lim *= 2
		c.i = 0
		if c.n == 0 {
			return store.Triple{}, false
		}
	}
	t := c.buf[c.i]
	c.i++
	return t, true
}

// seekGE positions the cursor so the next call to next returns the first
// remaining triple with t[col] >= key. The buffered batch is sorted on col
// (it streams in cursor order), so a target inside it is a binary search;
// otherwise the buffer is discarded and the skip delegates to the store
// cursor's index seek.
func (c *triCursor) seekGE(col int, key dict.ID) {
	if c.i < c.n && c.buf[c.n-1][col] >= key {
		rest := c.buf[c.i:c.n]
		c.i += sort.Search(len(rest), func(j int) bool { return rest[j][col] >= key })
		return
	}
	c.i, c.n = 0, 0
	c.lim = 0 // next fill starts small: a seek usually lands on one group
	if c.u != nil {
		c.u.SeekGE(col, key)
		return
	}
	c.cur.SeekGE(col, key)
}

// bindPos maps a triple position to the register slot it binds.
type bindPos struct {
	pos  int // 0..2: position in the scanned triple
	slot int // register slot of the variable at that position
}

// atomSpec is the compiled access path of one body atom: the pattern of its
// constants, the permutation to scan, and how matching triples bind. A union
// leaf (union.go) also lists its alternatives, the atom itself among them;
// its scans read their merged, re-mapped stream instead of the atom's own.
type atomSpec struct {
	atom   cq.Atom // retained for explain only; see planner.go
	pat    store.Pattern
	perm   store.Perm
	binds  []bindPos // first occurrence of each variable
	vars   []cq.Term // the variable of each bind: a scan of the atom's columns
	checks [][2]int  // positions that must be equal (repeated variables)
	alts   []altSpec // a union leaf's alternatives; nil for a plain atom
}

// bindBatch writes len(tris) decoded triples into the batch as a scan of the
// atom — column i holds the spec's i-th bound variable — and applies the
// repeated-variable checks by compacting a selection vector (branch-free: the
// index is stored unconditionally, the cursor advances on pass). The batch
// comes out dense when the spec has no checks.
func bindBatch(b *batch, spec *atomSpec, tris []store.Triple) {
	b.n = len(tris)
	b.sel = nil
	for c, bd := range spec.binds {
		col := b.cols[c]
		pos := bd.pos
		for i, t := range tris {
			col[i] = t[pos]
		}
	}
	for ci, c := range spec.checks {
		c0, c1 := c[0], c[1]
		if ci == 0 {
			sel := b.selStorage()
			k := 0
			for i, t := range tris {
				sel[k] = int32(i)
				if t[c0] == t[c1] {
					k++
				}
			}
			b.sel = sel[:k]
			continue
		}
		sel := b.sel
		k := 0
		for _, i := range sel {
			sel[k] = i
			if tris[i][c0] == tris[i][c1] {
				k++
			}
		}
		b.sel = sel[:k]
	}
}

// scanOp (IndexScan) streams one permutation range as column batches: one
// cursor merged over the pattern's placement route decodes up to BatchSize
// triples per call, in global permutation order (a run copy per shard, a flat
// gather on one clean shard), and the triple positions scatter into columns.
// The route is resolved from the pattern at first pull, so a cached template
// instantiated with new constants re-routes per binding.
type scanOp struct {
	st   store.Reader
	spec *atomSpec
	intr *interrupt

	started bool
	cur     store.Cursor
	u       *unionCursor // a union leaf's merged cursor, read instead of cur
	tris    []store.Triple
	out     *batch
}

func (s *scanOp) cols() []cq.Term { return s.spec.vars }

// close returns the scan's buffers to their pools.
func (s *scanOp) close() {
	s.out.release()
	putTris(s.tris)
	s.u.close()
	s.out, s.tris, s.u = nil, nil, nil
}

// open pins the scan's cursor.
func (s *scanOp) open() {
	s.started = true
	s.tris = getTris()
	s.out = newBatch(len(s.spec.binds))
	if s.spec.alts != nil {
		s.u = newUnionCursor(s.st, s.spec, s.intr, true)
		return
	}
	s.cur = s.st.NewCursor(s.spec.perm, s.spec.pat)
}

func (s *scanOp) nextBatch() (*batch, bool) {
	if !s.started {
		s.open()
	}
	for {
		if s.intr.stop() { // cancellation checkpoint: once per decoded batch
			return nil, false
		}
		var n int
		if s.u != nil {
			n = s.u.NextBatch(s.tris)
		} else {
			n = s.cur.NextBatch(s.tris)
		}
		if n == 0 {
			return nil, false
		}
		bindBatch(s.out, s.spec, s.tris[:n])
		if s.out.live() > 0 {
			return s.out, true
		}
	}
}

// mergeJoinOp merge-joins a left pipeline sorted on column slot with the
// atom's cursor sorted on triple position rpos (the planner picks a
// permutation that lists the atom's constants, then rpos). One equal-key run
// of right triples is buffered per key, so duplicate keys on either side
// produce the full cross-combination. Repeated-variable checks are applied
// once while buffering the group; when the atom shares more than one variable
// with the pipeline, the remaining shared variables (extraSlots/extraPos) are
// residual equality checks per output row against the left batch — the
// multi-key generalization that keeps merge joins available for star and
// cycle shapes.
// Emission carries resume state (gi) so a left-row × group cross product can
// span output batches.
type mergeJoinOp struct {
	left       operator
	st         store.Reader
	spec       *atomSpec
	slot       int       // join variable's column (left side, sorted)
	rpos       int       // join variable's triple position (right side, sorted)
	extraSlots []int     // residual shared variables: left columns ...
	extraPos   []int     // ... and the matching triple positions
	labels     []cq.Term // output columns: the left's, then the atom's new variables

	started  bool
	nleft    int // left columns, copied per output row
	cur      triCursor
	curT     store.Triple
	curOK    bool
	group    []store.Triple
	groupKey dict.ID
	haveGrp  bool

	lb       *batch
	lsel     []int32
	li       int   // next left row to consume, as an index into lsel
	lrow     int32 // current left row (batch row index) while emitting
	emitting bool
	gi       int
	out      *batch
}

func (m *mergeJoinOp) cols() []cq.Term { return m.labels }

// close returns the join's buffers, and those of the pipeline below, to their
// pools.
func (m *mergeJoinOp) close() {
	m.out.release()
	putTris(m.cur.buf)
	m.cur.u.close()
	m.out, m.cur.buf, m.cur.u = nil, nil, nil
	closeOp(m.left)
}

func (m *mergeJoinOp) nextBatch() (*batch, bool) {
	if !m.started {
		m.started = true
		if m.spec.alts != nil {
			m.cur = triCursor{u: newUnionCursor(m.st, m.spec, nil, false), buf: getTris()}
		} else {
			m.cur = triCursor{cur: m.st.NewCursor(m.spec.perm, m.spec.pat), buf: getTris()}
		}
		m.nleft = len(m.left.cols())
		m.out = newBatch(len(m.labels))
	}
	out := m.out
	out.reset()
	for {
		if m.emitting {
			m.emitGroup(out)
			if out.n == BatchSize {
				return out, true
			}
		}
		if m.lb == nil || m.li >= len(m.lsel) {
			// The output batch holds copies, so the left batch can be
			// released by pulling its successor mid-fill.
			lb, ok := m.left.nextBatch()
			if !ok {
				m.lb = nil
				if out.n > 0 {
					return out, true
				}
				return nil, false
			}
			m.lb, m.lsel, m.li = lb, lb.liveSel(), 0
			continue
		}
		lrow := m.lsel[m.li]
		m.li++
		key := m.lb.cols[m.slot][lrow]
		if !m.haveGrp || key != m.groupKey {
			if !m.haveGrp {
				// The first key seeks before the cursor reads anything, so a
				// union leaf decodes no triple the seek would skip.
				m.cur.seekGE(m.rpos, key)
				m.curT, m.curOK = m.cur.next()
			}
			// Left keys are non-decreasing, so the right cursor only ever
			// moves forward. Small gaps advance linearly; anything larger
			// gallops via the cursor's index seek, so a selective left side
			// skips over the unmatched right runs instead of streaming them.
			const linearSkip = 16
			for n := 0; m.curOK && m.curT[m.rpos] < key; {
				if n++; n > linearSkip {
					m.cur.seekGE(m.rpos, key)
					m.curT, m.curOK = m.cur.next()
					break
				}
				m.curT, m.curOK = m.cur.next()
			}
			m.group = m.group[:0]
			for m.curOK && m.curT[m.rpos] == key {
				keep := true
				for _, c := range m.spec.checks {
					if m.curT[c[0]] != m.curT[c[1]] {
						keep = false
						break
					}
				}
				if keep {
					m.group = append(m.group, m.curT)
				}
				m.curT, m.curOK = m.cur.next()
			}
			m.groupKey, m.haveGrp = key, true
		}
		if len(m.group) == 0 {
			continue
		}
		m.lrow = lrow
		m.gi = 0
		m.emitting = true
	}
}

// emitGroup emits the current left row against the buffered group until the
// group or the output batch is exhausted; emitting clears when the group is
// done. Without residual checks the run is emitted column-at-a-time: the left
// values are constant across the run, so each left column is a fill and each
// bound column a gather — no per-row slot dispatch.
func (m *mergeJoinOp) emitGroup(out *batch) {
	cols := m.lb.cols[:m.nleft]
	lrow := int(m.lrow)
	if len(m.extraPos) == 0 {
		g := len(m.group) - m.gi
		if free := BatchSize - out.n; g > free {
			g = free
		}
		if g > 0 {
			run := m.group[m.gi : m.gi+g]
			for s, col := range cols {
				dst := out.cols[s][out.n : out.n+g]
				v := col[lrow]
				for i := range dst {
					dst[i] = v
				}
			}
			for _, bd := range m.spec.binds {
				dst := out.cols[bd.slot][out.n : out.n+g]
				for i, t := range run {
					dst[i] = t[bd.pos]
				}
			}
			m.gi += g
			out.n += g
		}
		m.emitting = m.gi < len(m.group)
		return
	}
	for m.gi < len(m.group) {
		if out.n == BatchSize {
			return
		}
		t := m.group[m.gi]
		m.gi++
		ok := true
		for i, p := range m.extraPos {
			if t[p] != cols[m.extraSlots[i]][lrow] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		k := out.n
		for s, col := range cols {
			out.cols[s][k] = col[lrow]
		}
		for _, bd := range m.spec.binds {
			out.cols[bd.slot][k] = t[bd.pos]
		}
		out.n = k + 1
	}
	m.emitting = false
}

// sortOp is the explicit Sort physical operator. The planner inserts it at
// a "sort break" — the point in a left-deep pipeline where the next atom
// shares variables with the rows produced so far but none of them is the
// column the pipeline is currently sorted on — so that a merge join against
// the atom's already-sorted permutation cursor becomes available again; long
// chains then plan as scan → merge → sort → merge instead of cascading hash
// joins. The input's live rows are gathered into materialized columns, a
// permutation of row indexes is sorted on the key column, and output batches
// gather through the permutation — columnar both ways, with no per-row Row
// allocation. Downstream operators depend solely on the column being
// non-decreasing.
type sortOp struct {
	in   operator
	slot int // column the output is ordered by

	started bool
	data    [][]dict.ID
	perm    []int32
	pos     int
	out     *batch
}

func (s *sortOp) cols() []cq.Term { return s.in.cols() }

// close returns the sort's output batch, and the pipeline's below, to their
// pools.
func (s *sortOp) close() {
	s.out.release()
	s.out = nil
	closeOp(s.in)
}

func (s *sortOp) nextBatch() (*batch, bool) {
	if !s.started {
		s.started = true
		s.data = make([][]dict.ID, len(s.in.cols()))
		for {
			b, ok := s.in.nextBatch()
			if !ok {
				break
			}
			sel := b.liveSel()
			for c, d := range s.data {
				col := b.cols[c]
				for _, i := range sel {
					d = append(d, col[i])
				}
				s.data[c] = d
			}
		}
		key := s.data[s.slot]
		s.perm = make([]int32, len(key))
		for i := range s.perm {
			s.perm[i] = int32(i)
		}
		sort.Slice(s.perm, func(i, j int) bool { return key[s.perm[i]] < key[s.perm[j]] })
		s.out = newBatch(len(s.data))
	}
	if s.pos >= len(s.perm) {
		return nil, false
	}
	n := len(s.perm) - s.pos
	if n > BatchSize {
		n = BatchSize
	}
	out := s.out
	out.reset()
	perm := s.perm[s.pos : s.pos+n]
	for c, d := range s.data {
		col := out.cols[c]
		for k, p := range perm {
			col[k] = d[p]
		}
	}
	out.n = n
	s.pos += n
	return out, true
}

// buildPipeline instantiates the join pipeline below the head projection.
// Operators are single-use: each evaluation builds a fresh pipeline. n tracks
// how many register slots the pipeline has bound so far: slots are numbered in
// binding order, so its columns are slotTerms[:n]. intr (nil for uncancellable
// executions) reaches the operators that loop without returning control:
// scans and hash-join build drains.
func (p *QueryPlan) buildPipeline(intr *interrupt) operator {
	var cur operator
	n, pipe := 0, 0.0 // columns and estimated rows of the pipeline so far
	for i := range p.steps {
		s := &p.steps[i]
		if s.spec != nil {
			for _, bd := range s.spec.binds {
				n = max(n, bd.slot+1)
			}
		}
		switch s.kind {
		case stepScan:
			cur = &scanOp{st: p.st, spec: s.spec, intr: intr}
		case stepSort:
			cur = &sortOp{in: cur, slot: s.joinSlot}
		case stepMergeJoin:
			cur = &mergeJoinOp{left: cur, st: p.st, spec: s.spec, slot: s.joinSlot, rpos: s.rpos,
				extraSlots: s.extraSlots, extraPos: s.extraPos, labels: p.slotTerms[:n]}
		default: // stepHashJoin, stepCross: the pipeline ⋈ a scan of the atom
			leaf := &scanOp{st: p.st, spec: s.spec, intr: intr}
			shape, _ := joinShape(cur.cols(), leaf.cols(), nil) // natural join: no condition to reject
			cur = newHashJoinOp(cur, leaf, shape, s.buildLeft, pipe, s.est, s.outEst, intr)
		}
		pipe = s.outEst
	}
	return cur
}

// compile instantiates the whole plan: the pipeline under the head projection,
// which deduplicates when the head drops a body variable.
func (p *QueryPlan) compile(intr *interrupt) *projectOp {
	return &projectOp{in: p.buildPipeline(intr), labels: p.head, idx: p.headSlots,
		distinct: p.distinct, est: p.steps[0].est}
}
