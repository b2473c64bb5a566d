package rdfviews

// Streaming serving surface: the counterpart of AnswerQuery/Answer that hands
// the result out slab by slab instead of materializing it. This is what the
// HTTP front end (internal/server) drains — the response writer encodes one
// slab, blocks on the client's socket, then pulls the next, so a slow reader
// holds O(batch) engine state rather than O(result), and the caller's
// context.Context cancels the running pipeline at its next checkpoint
// (client disconnects and deadlines propagate into the engine).
//
// Every materialized answer of the facade — AnswerQuery, Prepared.Answer,
// Database.Answer and Views.Answer, whether the Views was materialized,
// maintained or loaded from a bundle — collects one of these streams, so
// routing, caching and freshness — statement cache, plan cache, view-route
// match, StaleReadPolicy flush barrier — exist once, every rewriting runs
// through openRewriting (called from Views.rewriting alone), and every
// value is rendered by dict.Render: through AnswerStream.decode for the
// library's rows, through the dictionary's rendered table for the server's
// (AnswerStream.AppendRows).

import (
	"context"
	"fmt"
	"slices"

	"rdfviews/internal/algebra"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/store"
)

// ErrStreamClosed is what AnswerStream.Next returns once the stream was
// closed before its end.
var ErrStreamClosed = engine.ErrStreamClosed

// AnswerStream is a streaming query answer: decoded row slabs pulled on
// demand (Next), or the same slabs appended as SPARQL JSON (AppendRows). A
// slab (and its rows) is valid only until the next pull. Close releases the
// underlying pipeline and is required on every stream, drained or not.
type AnswerStream struct {
	cols []string
	rs   *engine.RowStream
	d    *dict.Dictionary
	out  [][]string
	flat []string
}

func newAnswerStream(rs *engine.RowStream, cols []string, d *dict.Dictionary) *AnswerStream {
	w := len(rs.Cols())
	if len(cols) != w {
		// Defensive: column names must line up with the pipeline's head; fall
		// back to positional names rather than mislabel.
		cols = make([]string, w)
		for i := range cols {
			cols[i] = "c" + fmt.Sprint(i+1)
		}
	}
	return &AnswerStream{cols: cols, rs: rs, d: d}
}

// Columns returns the result column names, in the source query's head order:
// SPARQL variable names (without the '?'), Datalog head tokens.
func (s *AnswerStream) Columns() []string { return s.cols }

// Next returns the next slab of decoded rows, nil at end of stream, or the
// error that terminated the stream — a canceled or expired context surfaces
// here as ctx.Err(). After EOF or an error every further call returns the
// same, and after an early Close ErrStreamClosed. The slab is reused: rows
// are valid only until the next call.
func (s *AnswerStream) Next() ([][]string, error) {
	rows, err := s.rs.Next()
	if err != nil || rows == nil {
		return nil, err
	}
	w := len(s.cols)
	need := len(rows) * w
	if cap(s.flat) < need {
		s.flat = make([]string, need)
	}
	// One dictionary view per slab: the dictionary only grows, so a view
	// taken after the slab was pulled holds every ID in it, and decoding
	// against it takes no lock. A decoded value aliases the dictionary's
	// arena, whose bytes never change.
	view := s.d.View()
	s.out = s.out[:0]
	for ri, row := range rows {
		r := s.flat[ri*w : (ri+1)*w : (ri+1)*w]
		for i, id := range row {
			r[i] = s.decode(view, id)
		}
		s.out = append(s.out, r)
	}
	return s.out, nil
}

// Close releases the stream's pipeline; idempotent, safe after EOF.
func (s *AnswerStream) Close() { s.rs.Close() }

// collect drains the stream into rows that outlive it and closes it: the
// materialized answer of every surface.
func (s *AnswerStream) collect() ([][]string, error) {
	defer s.Close()
	out := [][]string{}
	for {
		rows, err := s.Next()
		if err != nil {
			return nil, err
		}
		if rows == nil {
			return out, nil
		}
		out = append(out, rows...)
		// The collected rows keep this slab's strings: decode the next into a
		// fresh one.
		s.flat = nil
	}
}

// AppendRows pulls the next slab and appends its rows to dst as SPARQL JSON
// bindings — the server's one encoder (server.Stream.AppendRows): a comma
// before each row (before the first too when comma is set), then seps[i]
// before column i's value and end after the row. Each value is copied from
// the dictionary's table of rendered literals (dict.Literals), so it is
// rendered by the rule decode follows and escaped once per dictionary, not
// once per binding. It returns the extended dst and the number of rows
// appended, 0 at the end of the stream; on an error, dst unchanged. It pulls
// the same stream as Next.
func (s *AnswerStream) AppendRows(dst []byte, comma bool, seps [][]byte, end []byte) ([]byte, int, error) {
	rows, err := s.rs.Next()
	if err != nil || rows == nil {
		return dst, 0, err
	}
	return dict.AppendRows(s.d.Literals(), dst, comma, rows, seps, end), len(rows), nil
}

// decode renders one dictionary ID against a dictionary view by the one
// rule every answer follows (dict.Render: IRIs shortened, literal values
// raw, undecodable IDs as ?id), taking a fresh view once before an ID past
// it renders as ?id.
func (s *AnswerStream) decode(view *dict.View, id dict.ID) string {
	if id > dict.ID(view.Len()) {
		view = s.d.View()
	}
	return dict.Render(view, id)
}

// openRewriting is the one way a rewriting runs, whichever surface asks:
// plan i of plans over the extents resolve supplies, canceled by ctx.
func openRewriting(ctx context.Context, plans []algebra.Plan, i int, resolve engine.ViewResolver) (*engine.RowStream, error) {
	if i < 0 || i >= len(plans) {
		return nil, fmt.Errorf("rdfviews: query index %d out of range", i)
	}
	return engine.ExecuteStream(plans[i], resolve, engine.ExecOptions{Ctx: ctx})
}

// execStream runs the binding's store members against a reader: each is
// instantiated with the reader and the binding's constants (one copy of the
// member's step specs) and streamed — a member's union leaves keep its
// stream a set — and several members are unioned positionally by
// engine.UnionStreams.
func (r *boundRoute) execStream(reader store.Reader, opts engine.ExecOptions) (*engine.RowStream, error) {
	if len(r.members) == 1 {
		return r.members[0].Instantiate(reader, r.repr).EvalStream(opts), nil
	}
	streams := make([]*engine.RowStream, len(r.members))
	for i, p := range r.members {
		streams[i] = p.Instantiate(reader, r.repr).EvalStream(opts)
	}
	return engine.UnionStreams(streams, 64)
}

// AnswerQueryStream answers one ad-hoc query (SPARQL or Datalog-like text)
// over the deployment as a stream: the routing, caching and freshness
// semantics of AnswerQuery, but the result is pulled slab by slab and ctx
// cancels the running pipeline (the serving tier's deadline and disconnect
// propagation). The caller must Close the stream.
func (v *Views) AnswerQueryStream(ctx context.Context, text string) (*AnswerStream, error) {
	li, err := v.lifted(v.dict, &v.at, text)
	if err != nil {
		return nil, err
	}
	rs, err := v.openLifted(ctx, li)
	if err != nil {
		return nil, err
	}
	return newAnswerStream(rs, li.headNames, v.dict), nil
}

// openLifted is the one execution path of the Views serving surface: plan li
// at the current generation, then run the store template or — for an exact
// workload match — the rewriting, its columns lined up with the incoming
// head.
func (v *Views) openLifted(ctx context.Context, li *liftInfo) (*engine.RowStream, error) {
	at := v.now()
	r, err := v.plan(li, &at)
	if err != nil {
		return nil, err
	}
	if !r.matched {
		// Store path, over the snapshot the call pinned: the base store is
		// updated synchronously even under asynchronous maintenance, so it
		// needs no flush barrier.
		return r.execStream(at.reader, engine.ExecOptions{Ctx: ctx})
	}
	rs, err := v.rewriting(ctx, r.idx)
	if err != nil || slices.Equal(rs.Cols(), r.cols) {
		return rs, err
	}
	proj, err := engine.ProjectStream(rs, r.cols)
	if err != nil {
		rs.Close()
	}
	return proj, err
}

// rewriting opens workload query i's rewriting over one generation of the
// extents, behind the flush barrier when the StaleReadPolicy is WaitFresh.
func (v *Views) rewriting(ctx context.Context, i int) (*engine.RowStream, error) {
	if v.stale == WaitFresh {
		if err := v.m.Flush(); err != nil {
			return nil, err
		}
	}
	return openRewriting(ctx, v.plans, i, v.extents())
}

// AnswerQueryStream answers ad-hoc query text directly on the database as a
// stream, under the reasoning mode — the streaming counterpart of Answer for
// text queries, sharing its statement and plan cache. The caller must Close
// the stream.
func (db *Database) AnswerQueryStream(ctx context.Context, text string, mode Reasoning) (*AnswerStream, error) {
	v, err := db.at(mode)
	if err != nil {
		return nil, err
	}
	li, err := db.lifted(db.st.Dict(), &v, text)
	if err != nil {
		return nil, err
	}
	return db.open(ctx, li, &v)
}
