package engine

import (
	"fmt"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// The one drain of both tiers: the pipeline is pulled one batch at a time and
// each batch is handed to the consumer as a row slab. This is the serving
// tier's backpressure path — an HTTP response encodes each slab and blocks on
// the client's socket before the next batch is pulled, so a slow reader holds
// O(batch) engine state, not O(result) — and Collect over it is the one way a
// result becomes a Relation. The streams honor ExecOptions.Ctx: a canceled
// context stops the pipeline at its next checkpoint and Next surfaces
// ctx.Err().

// RowStream is a pulled sequence of row slabs from a running pipeline.
// Next returns slabs of at least one row; unless the stream says otherwise,
// a slab (and its rows) is valid only until the next Next call. Close
// releases the pipeline's operators and is required on every stream, drained
// or not.
type RowStream struct {
	streamCols []cq.Term
	pull       func() ([]Row, error) // nil slab = EOF
	stop       func()
	est        float64 // the compiled root's estimated rows; 0 for a stream over streams
	done       bool
	err        error
}

// Cols returns the stream's column labels.
func (s *RowStream) Cols() []cq.Term { return s.streamCols }

// Next returns the next slab of rows, nil at end of stream, or the error
// that terminated the stream (a canceled ExecOptions.Ctx surfaces here as
// ctx.Err()). After EOF or an error every further call returns the same.
func (s *RowStream) Next() ([]Row, error) {
	if s.done {
		return nil, s.err
	}
	rows, err := s.pull()
	if err != nil {
		s.done, s.err = true, err
		s.Close()
		return nil, err
	}
	if rows == nil {
		s.done = true
		s.Close()
		return nil, nil
	}
	return rows, nil
}

// Close releases the stream's pipeline (its batch buffers). It is idempotent
// and safe after EOF.
func (s *RowStream) Close() {
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
}

// Collect is the one materializing drain: it pulls the stream dry into a
// relation and closes it on every exit path. A canceled ExecOptions.Ctx
// surfaces as its error, never as a truncated relation.
func (s *RowStream) Collect() (*Relation, error) {
	defer s.Close()
	out := NewRelation(s.streamCols)
	var arena rowArena
	for {
		rows, err := s.Next()
		if err != nil {
			return nil, err
		}
		if rows == nil {
			return out, nil
		}
		for _, row := range rows {
			out.Rows = append(out.Rows, arena.copyRow(row))
		}
	}
}

// slabBuf is the reusable row-slab buffer streaming drains transpose batches
// into: one flat backing array, re-sliced into rows per fill and sized by the
// largest slab seen, so a point lookup does not pay for a full batch.
type slabBuf struct {
	rows []Row
	back []dict.ID
	w    int
}

// reset readies the buffer for a new slab of up to n rows.
func (sb *slabBuf) reset(n int) {
	if cap(sb.rows) < n {
		sb.rows = make([]Row, 0, n)
		sb.back = make([]dict.ID, n*sb.w)
	}
	sb.rows = sb.rows[:0]
}

// next returns the next uninitialized row of the slab.
func (sb *slabBuf) next() Row {
	i := len(sb.rows) * sb.w
	row := sb.back[i : i+sb.w : i+sb.w]
	sb.rows = append(sb.rows, row)
	return row
}

// stream is the streaming drain of both tiers: each batch the root yields is
// transposed into a reused slab, so the stream holds O(batch) beyond the
// operators' own state (a dedup set holds each kept row once, which is
// inherent to distinct). est is the planner's row estimate for the root,
// carried for a union over this stream to size its set from. Closing the
// stream closes the root.
func stream(root operator, est float64, opts ExecOptions) *RowStream {
	w := len(root.cols())
	slab := slabBuf{w: w}
	pull := func() ([]Row, error) {
		b, ok := root.nextBatch()
		if !ok {
			return nil, opts.ctxErr()
		}
		sel := b.liveSel()
		slab.reset(len(sel))
		for _, i := range sel {
			row := slab.next()
			for c := range row {
				row[c] = b.cols[c][i]
			}
		}
		return slab.rows, nil
	}
	return &RowStream{streamCols: append([]cq.Term(nil), root.cols()...), pull: pull,
		stop: func() { closeOp(root) }, est: est}
}

// EvalStream runs the store-side pipeline and streams its head tuples instead
// of materializing them. The stream's rows are valid until the next Next.
func (p *QueryPlan) EvalStream(opts ExecOptions) *RowStream {
	root := p.compile(newInterrupt(opts.Ctx))
	return stream(root, root.est, opts)
}

// ExecuteStream evaluates a rewriting plan over materialized views and
// streams the result. This is the query-answering path of the three-tier
// deployment scenario: workload queries run against the recommended views
// only, with no access to the triple store (Section 1). The logical plan is
// compiled to a pipeline of batch operators (operators.go) — view scans,
// filters, hash joins, deduplicating projections and unions — that runs
// serially on the consumer's goroutine, and all structural validation happens
// at compile time.
func ExecuteStream(p algebra.Plan, resolve ViewResolver, opts ExecOptions) (*RowStream, error) {
	root, est, err := compileRel(p, resolve.extent, newInterrupt(opts.Ctx))
	if err != nil {
		return nil, err
	}
	return stream(root, est, opts), nil
}

// UnionStreams streams the set union of its member streams, deduplicating
// across members: a union of conjunctive queries on the store, or the
// serving tier's multi-member template. Every member is a distinct stream,
// so a union of one is that member, returned unchanged (its slabs valid
// until the next Next, as any stream's). Otherwise kept rows are copied into
// the dedup set's arena, so the union's slabs stay valid across Next calls;
// the set is sized by unionEst, the rule a union inside a plan follows.
// Closing the union closes every member.
func UnionStreams(streams []*RowStream, sizeHint int) (*RowStream, error) {
	switch len(streams) {
	case 0:
		return nil, fmt.Errorf("engine: empty stream union")
	case 1:
		return streams[0], nil
	}
	w := len(streams[0].Cols())
	for _, s := range streams[1:] {
		if len(s.Cols()) != w {
			return nil, fmt.Errorf("engine: stream union arity mismatch: %d vs %d", len(s.Cols()), w)
		}
	}
	seen := newRowSet(distinctSizeHint(unionEst(streams, sizeHint)))
	si := 0
	out := make([]Row, 0, BatchSize)
	pull := func() ([]Row, error) {
		for si < len(streams) {
			rows, err := streams[si].Next()
			if err != nil {
				return nil, err
			}
			if rows == nil {
				si++
				continue
			}
			out = out[:0]
			for _, row := range rows {
				if kept, added := seen.addCopy(row); added {
					out = append(out, kept)
				}
			}
			if len(out) > 0 {
				return out, nil
			}
		}
		return nil, nil
	}
	stop := func() {
		for _, s := range streams {
			s.Close()
		}
	}
	return &RowStream{streamCols: streams[0].Cols(), pull: pull, stop: stop}, nil
}

// unionEst is the row estimate a union of streams dedups under: the sum of
// its members' estimates, as for a Union node of a rewriting plan
// (compileRel), with sizeHint as the floor for members that carry none.
func unionEst(streams []*RowStream, sizeHint int) float64 {
	est := 0.0
	for _, s := range streams {
		est += s.est
	}
	return max(float64(sizeHint), est)
}

// ProjectStream reorders a stream's columns onto the given labels; constant
// labels project as constant columns. Unlike Relation.Project it does not
// re-deduplicate: it is meant for permutations of an already-distinct
// stream's full column set (the serving tier's view-route case, where the
// cached statement's head is a relabeling of the plan's head), which cannot
// introduce duplicates.
func ProjectStream(in *RowStream, cols []cq.Term) (*RowStream, error) {
	inCols := in.Cols()
	idx := make([]int, len(cols))
	for i, c := range cols {
		if c.IsConst() {
			idx[i] = -1
			continue
		}
		idx[i] = termIndex(inCols, c)
		if idx[i] < 0 {
			return nil, fmt.Errorf("engine: projection column %v not in %v", c, inCols)
		}
	}
	slab := slabBuf{w: len(cols)}
	pull := func() ([]Row, error) {
		rows, err := in.Next()
		if err != nil || rows == nil {
			return nil, err
		}
		slab.reset(len(rows))
		for _, row := range rows {
			nr := slab.next()
			for i, j := range idx {
				if j < 0 {
					nr[i] = cols[i].ConstID()
				} else {
					nr[i] = row[j]
				}
			}
		}
		return slab.rows, nil
	}
	return &RowStream{streamCols: append([]cq.Term(nil), cols...), pull: pull, stop: in.Close}, nil
}
