package engine

import (
	"errors"
	"slices"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// The one drain of both tiers: a stream pulls one root operator a batch at a
// time and hands each batch to the consumer as a row slab. This is the
// serving tier's backpressure path — an HTTP response encodes each slab and
// blocks on the client's socket before the next batch is pulled, so a slow
// reader holds O(batch) engine state, not O(result) — and Collect over it is
// the one way a result becomes a Relation. Streams combine before they are
// pulled, as operators: UnionStreams puts its members' trees under the one
// union (newUnion, the constructor a rewriting's Union node compiles to) and
// ProjectStream puts a non-deduplicating projectOp over its input's tree, so
// every answer is one operator tree. The streams honor ExecOptions.Ctx: a
// canceled context stops the tree at its next checkpoint and Next surfaces
// ctx.Err().

// ErrStreamClosed is what Next returns on a stream closed before it reached
// its end.
var ErrStreamClosed = errors.New("engine: stream closed")

// RowStream is a pulled sequence of row slabs from a running pipeline.
// Next returns slabs of at least one row; a slab (and its rows) is valid only
// until the next Next call. Close releases the pipeline's operators and is
// required on every stream, drained or not.
type RowStream struct {
	cols   []cq.Term
	root   operator   // nil once closed
	intrs  interrupts // the cancellation tokens root's checkpoints poll
	rows   []Row      // the slab, re-sliced from back per Next
	back   []dict.ID
	pulled bool
	done   bool
	err    error
}

// newStream streams root, whose checkpoints poll intrs.
func newStream(root operator, intrs interrupts) *RowStream {
	return &RowStream{cols: slices.Clone(root.cols()), root: root, intrs: intrs}
}

// Cols returns the stream's column labels.
func (s *RowStream) Cols() []cq.Term { return s.cols }

// Next returns the next slab of rows, nil at end of stream, or the error
// that terminated the stream (a canceled ExecOptions.Ctx surfaces here as
// ctx.Err()). After EOF or an error every further call returns the same;
// after an early Close it returns ErrStreamClosed.
func (s *RowStream) Next() ([]Row, error) {
	b, sel, err := s.pull()
	if b == nil {
		return nil, err
	}
	// Transpose into the reused slab: one flat backing array sized by the
	// largest batch seen, so a point lookup does not pay for a full batch.
	w := len(s.cols)
	if cap(s.rows) < len(sel) {
		s.rows, s.back = make([]Row, len(sel)), make([]dict.ID, len(sel)*w)
	}
	s.rows = s.rows[:len(sel)]
	for k, i := range sel {
		row := s.back[k*w : (k+1)*w : (k+1)*w]
		for c := range row {
			row[c] = b.cols[c][i]
		}
		s.rows[k] = row
	}
	return s.rows, nil
}

// pull returns the root's next batch and its live rows, or a nil batch with
// the stream's terminal error (nil at EOF).
func (s *RowStream) pull() (*batch, []int32, error) {
	if s.done {
		return nil, nil, s.err
	}
	s.pulled = true
	b, ok := s.root.nextBatch()
	if !ok {
		s.done, s.err = true, s.intrs.err()
		s.Close()
		return nil, nil, s.err
	}
	return b, b.liveSel(), nil
}

// Close releases the stream's pipeline (its batch buffers). It is idempotent
// and safe after EOF.
func (s *RowStream) Close() {
	if !s.done {
		s.done, s.err = true, ErrStreamClosed
	}
	if s.root != nil {
		closeOp(s.root)
		s.root = nil
	}
}

// Collect is the one materializing drain: it pulls the stream dry into a
// relation, narrowing each batch straight into its 32-bit columns, and
// closes it on every exit path. A canceled ExecOptions.Ctx
// surfaces as its error, never as a truncated relation.
func (s *RowStream) Collect() (*Relation, error) {
	defer s.Close()
	out := NewRelation(s.cols)
	for {
		b, sel, err := s.pull()
		if err != nil {
			return nil, err
		}
		if b == nil {
			out.trim()
			return out, nil
		}
		out.appendBatch(b, sel)
	}
}

// adopt hands the stream's operator tree to a stream built over it, which
// closes the tree from then on; the stream itself is left closed. Only a
// stream that has not been pulled has a whole tree to hand over.
func (s *RowStream) adopt() {
	s.root, s.done, s.err = nil, true, ErrStreamClosed
}

// unpulled rejects a stream a combinator cannot adopt: one already pulled or
// closed.
func (s *RowStream) unpulled() error {
	if s.pulled || s.done {
		return errors.New("engine: cannot combine a stream that was already pulled")
	}
	return nil
}

// EvalStream runs the store-side pipeline and streams its head tuples instead
// of materializing them. The stream's rows are valid until the next Next.
func (p *QueryPlan) EvalStream(opts ExecOptions) *RowStream {
	intr := newInterrupt(opts.Ctx)
	return newStream(p.compile(intr), interrupts{intr})
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
	intr := newInterrupt(opts.Ctx)
	root, _, err := compileRel(p, resolve.extent, intr)
	if err != nil {
		return nil, err
	}
	return newStream(root, interrupts{intr}), nil
}

// UnionStreams streams the set union of its member streams, deduplicating
// across members: a union of conjunctive queries on the store, or the
// serving tier's multi-member template. No member may have been pulled. A
// union of one is that member, returned unchanged; otherwise the members'
// trees become the branches of the one union operator (newUnion), its set
// sized by the sum of their estimates with sizeHint as the floor, and the
// union stops at the first member whose cancellation fires. Closing the
// union closes every member.
func UnionStreams(streams []*RowStream, sizeHint int) (*RowStream, error) {
	branches := make([]operator, len(streams))
	var intrs interrupts
	for i, s := range streams {
		if err := s.unpulled(); err != nil {
			return nil, err
		}
		branches[i], intrs = s.root, append(intrs, s.intrs...)
	}
	if len(streams) == 1 {
		return streams[0], nil
	}
	root, err := newUnion(branches, float64(sizeHint), intrs)
	if err != nil {
		return nil, err
	}
	for _, s := range streams {
		s.adopt()
	}
	return newStream(root, intrs), nil
}

// ProjectStream reorders a stream that has not been pulled onto the given
// labels; constant labels project as constant columns. Unlike
// Relation.Project it does not re-deduplicate: it is meant for permutations
// of an already-distinct stream's full column set (the serving tier's
// view-route case, where the cached statement's head is a relabeling of the
// plan's head), which cannot introduce duplicates.
func ProjectStream(in *RowStream, cols []cq.Term) (*RowStream, error) {
	if err := in.unpulled(); err != nil {
		return nil, err
	}
	op, err := newProjectOp(in.root, cols, estOf(in.root))
	if err != nil {
		return nil, err
	}
	op.distinct = false
	in.adopt()
	return newStream(op, in.intrs), nil
}
