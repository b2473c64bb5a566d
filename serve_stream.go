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
// Database.Answer, and the per-query Answer of LiveViews, Materialized and
// OfflineViews — collects one of these streams, so routing, caching and
// freshness — statement cache, plan cache, view-route match, StaleReadPolicy
// flush barrier — exist once, every rewriting runs through openRewriting,
// and AnswerStream.decode is the only decoder.

import (
	"context"
	"fmt"

	"rdfviews/internal/algebra"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// maxStreamMemo caps the per-stream decode memo. A stream must stay
// O(batch), so the memo is a direct-mapped table of at most this many
// entries in which an ID simply takes the place of whichever one shared its
// slot.
const maxStreamMemo = 4096

// memoEntry is one slot of the decode memo: the last ID decoded into it.
type memoEntry struct {
	id  dict.ID
	val string
}

// ErrStreamClosed is what AnswerStream.Next returns once the stream was
// closed before its end.
var ErrStreamClosed = engine.ErrStreamClosed

// AnswerStream is a streaming query answer: decoded row slabs pulled on
// demand. A slab (and its rows) is valid only until the next call to Next.
// Close releases the underlying pipeline and is required on every stream,
// drained or not.
type AnswerStream struct {
	cols []string
	rs   *engine.RowStream
	d    *dict.Dictionary
	memo []memoEntry // direct-mapped by id & (len-1); sized by the first slab
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
	if s.memo == nil {
		// Sized by what the first slab could hold distinct: a point answer
		// pays for a handful of entries, a scan for the cap.
		size := 1
		for size < need && size < maxStreamMemo {
			size <<= 1
		}
		s.memo = make([]memoEntry, size)
	}
	s.out = s.out[:0]
	for ri, row := range rows {
		r := s.flat[ri*w : (ri+1)*w : (ri+1)*w]
		for i, id := range row {
			r[i] = s.decode(id)
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

// decode renders one dictionary ID — the one rule every answer follows: IRIs
// shortened, literal values raw, undecodable IDs as ?id. The memo is bounded
// (maxStreamMemo) so an adversarially wide result cannot grow it past O(1).
// Valid IDs start at 1, so the zero entry of a fresh slot matches none.
func (s *AnswerStream) decode(id dict.ID) string {
	e := &s.memo[uint64(id)&uint64(len(s.memo)-1)]
	if e.id == id && id != 0 {
		return e.val
	}
	t, err := s.d.Decode(id)
	var v string
	switch {
	case err != nil:
		v = fmt.Sprintf("?%d", id)
	case t.Kind == rdf.IRI:
		v = rdf.ShortenIRI(t.Value)
	default:
		v = t.Value
	}
	e.id, e.val = id, v
	return v
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
// pinned to the reader (a struct copy) and streamed — a member's union leaves
// keep its stream a set — and several members are unioned positionally by
// engine.UnionStreams.
func (r *boundRoute) execStream(reader store.Reader, opts engine.ExecOptions) (*engine.RowStream, error) {
	if len(r.members) == 1 {
		return r.members[0].Instantiate(reader, nil).EvalStream(opts), nil
	}
	streams := make([]*engine.RowStream, len(r.members))
	for i, p := range r.members {
		streams[i] = p.Instantiate(reader, nil).EvalStream(opts)
	}
	return engine.UnionStreams(streams, 64)
}

// AnswerQueryStream answers one ad-hoc query (SPARQL or Datalog-like text)
// over the maintained deployment as a stream: the routing, caching and
// freshness semantics of AnswerQuery, but the result is pulled slab by slab
// and ctx cancels the running pipeline (the serving tier's deadline and
// disconnect propagation). The caller must Close the stream.
func (lv *LiveViews) AnswerQueryStream(ctx context.Context, text string) (*AnswerStream, error) {
	li, err := lv.liftedFor(text)
	if err != nil {
		return nil, err
	}
	rs, err := lv.openLifted(ctx, li)
	if err != nil {
		return nil, err
	}
	return newAnswerStream(rs, li.headNames, lv.m.Store().Dict()), nil
}

// openLifted is the one execution path of the LiveViews serving surface:
// plan li at the current publish generation, then run the store template or
// — for an exact workload match — the maintained rewriting, its columns
// lined up with the incoming head.
func (lv *LiveViews) openLifted(ctx context.Context, li *liftInfo) (*engine.RowStream, error) {
	v := lv.now()
	r, err := lv.plan(li, &v)
	if err != nil {
		return nil, err
	}
	if !r.matched {
		// Store path: the base store is updated synchronously even under
		// asynchronous maintenance, so a snapshot needs no flush barrier.
		return r.execStream(lv.m.Store().Snapshot(), engine.ExecOptions{Ctx: ctx})
	}
	rs, err := lv.rewriting(ctx, r.idx)
	if err != nil || sameCols(rs.Cols(), r.cols) {
		return rs, err
	}
	proj, err := engine.ProjectStream(rs, r.cols)
	if err != nil {
		rs.Close()
	}
	return proj, err
}

// rewriting opens workload query i's rewriting over the published extents,
// behind the flush barrier when the StaleReadPolicy is WaitFresh.
func (lv *LiveViews) rewriting(ctx context.Context, i int) (*engine.RowStream, error) {
	if lv.stale == WaitFresh {
		if err := lv.m.Flush(); err != nil {
			return nil, err
		}
	}
	return openRewriting(ctx, lv.rec.state.Plans, i, lv.m.Resolver())
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

// PublishGen returns the maintainer's monotone publish generation — it
// advances exactly when a new extent generation is published. Serving-tier
// monitors (and the HTTP stress tests) use it to observe maintenance
// progress without touching extents.
func (lv *LiveViews) PublishGen() uint64 { return lv.m.PublishGen() }
