package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"rdfviews/internal/server"
)

// Tracing lives entirely in this directory: spans are recorded by wrappers
// around the calls into each layer, never inside the layers. Real spans wrap
// what a request actually executed — the client call, the HTTP handler, the
// backend's open and each Next. Below the facade there is nothing to wrap
// from outside, so each sampled operation is replayed through the layers'
// public functions (layers.go) and those spans are marked Replayed: they say
// what the layer costs on this input, not when it ran inside the request.

// span is one timed interval. Spans of one request share Req (the id of the
// request's root span); Parent is 0 for roots. Times are nanoseconds since
// the tracer was created.
type span struct {
	Req      int    `json:"req"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// newID reserves a span id, so children can name their parent before the
// parent has ended.
func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) record(req, id, parent int, name string, start, end time.Time, replayed bool) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Req: req, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Replayed: replayed,
	})
	t.mu.Unlock()
}

// timed runs fn as a replayed child span of parent.
func (t *tracer) timed(req, parent int, name string, fn func()) time.Duration {
	id := t.newID()
	start := time.Now()
	fn()
	end := time.Now()
	t.record(req, id, parent, name, start, end, true)
	return end.Sub(start)
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := map[string]any{"meta": meta, "spans": t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its children cover. Children of one span never overlap here: each request
// is served by one goroutine at a time.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// traceRef is what the instrumented handler leaves in the request context
// for the backend wrapper: the request id and the handler's span id.
type traceRef struct{ req, span int }

type traceKey struct{}

// tracedHandler wraps srv.Handler(): requests that carry a request id get a
// server.handler span (child of the client's root span, whose id is the
// request id) and a context the backend wrapper can find.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil || req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.newID()
		start := time.Now()
		ctx := context.WithValue(r.Context(), traceKey{}, traceRef{req: req, span: id})
		h.ServeHTTP(w, r.WithContext(ctx))
		tr.record(req, id, req, "server.handler", start, time.Now(), false)
	})
}

// tracedBackend wraps the server.Backend: the call to AnswerStream until the
// stream is returned is rdfviews.open; each Next on the returned stream is
// rdfviews.next.
type tracedBackend struct {
	inner server.Backend
	tr    *tracer
}

func (b tracedBackend) AnswerStream(ctx context.Context, query string) (server.Stream, error) {
	ref, ok := ctx.Value(traceKey{}).(traceRef)
	if !ok {
		return b.inner.AnswerStream(ctx, query)
	}
	id := b.tr.newID()
	start := time.Now()
	st, err := b.inner.AnswerStream(ctx, query)
	b.tr.record(ref.req, id, ref.span, "rdfviews.open", start, time.Now(), false)
	if err != nil {
		return nil, err
	}
	return &tracedStream{Stream: st, tr: b.tr, ref: ref}, nil
}

type tracedStream struct {
	server.Stream
	tr  *tracer
	ref traceRef
}

func (s *tracedStream) Next() ([][]string, error) {
	id := s.tr.newID()
	start := time.Now()
	rows, err := s.Stream.Next()
	s.tr.record(s.ref.req, id, s.ref.span, "rdfviews.next", start, time.Now(), false)
	return rows, err
}

// tracedPass is the client side of one pass of a traced run. With a nil
// tracer it is the untraced baseline pass: same operation count, one client,
// no spans — the difference between the two is the tracing overhead.
type tracedPass struct {
	tr    *tracer
	limit int // operations per generator

	mu          sync.Mutex
	texts       map[int]string // request id -> query text, for the replay
	order       []int          // request ids in issue order
	publishGens uint64
}

// begin opens a request: the returned id is both the request id and the id
// of its root client.request span (0 in the baseline pass).
func (p *tracedPass) begin(query string) int {
	if p.tr == nil {
		return 0
	}
	id := p.tr.newID()
	p.mu.Lock()
	if p.texts == nil {
		p.texts = make(map[int]string)
	}
	p.texts[id] = query
	p.order = append(p.order, id)
	p.mu.Unlock()
	return id
}

func (p *tracedPass) end(id int, t0 time.Time, took time.Duration) {
	if id != 0 {
		p.tr.record(id, id, 0, "client.request", t0, t0.Add(took), false)
	}
}

// update records one LiveViews.Insert/Delete call of serve-churn's writer.
func (p *tracedPass) update(t0 time.Time, took time.Duration) {
	if p.tr != nil {
		id := p.tr.newID()
		p.tr.record(id, id, 0, "maintain.update", t0, t0.Add(took), false)
	}
}
