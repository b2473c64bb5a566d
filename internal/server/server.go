// Package server is the SPARQL-over-HTTP serving tier: a production-shaped
// front end over the library's streaming answer surface. It exposes
//
//	GET  /sparql?query=...&timeout=...   (also POST: form or raw query body)
//	GET  /stats
//
// with the serving semantics a network tier needs and a library call does
// not:
//
//   - Streamed result writing with backpressure: the response encodes one
//     row slab at a time, pulls and encodes the next, and only then writes
//     and flushes the first, so a slow client holds O(batch) server memory —
//     at most two encoded slabs — never O(result). An answer that fits one
//     slab therefore leaves in a single write (head, rows and tail together;
//     small ones with Content-Length and no chunk framing), and a stream
//     that fails on its first pull still gets a status line of its own.
//   - Deadlines as cancellation: every request runs under a context that
//     expires at its (client-chosen, server-capped) timeout and is canceled
//     when the client disconnects; the engine's cancellation checkpoints
//     stop the pipeline mid-query either way.
//   - Admission control: a bounded in-flight semaphore plus a bounded wait
//     queue. Requests beyond in-flight capacity queue; beyond queue capacity
//     they shed immediately with 503, and queued requests that wait past the
//     queue timeout shed with 429 + Retry-After — overload degrades into
//     fast rejections instead of collapse.
//   - Graceful shutdown: Shutdown stops accepting and drains in-flight
//     requests (net/http's lame-duck semantics).
//
// Results are SPARQL JSON (application/sparql-results+json): head.vars from
// the query's own variable names, one binding object per row, appended into
// reused buffers with the bytes encoding/json would write (encode.go). Rows
// are appended from IDs (Stream.AppendRows): each value is copied from its
// dictionary's table of pre-rendered literals (dict.Literals), rendered and
// escaped once a term. The table costs a 4-byte end offset a term, plus
// len+2 bytes for each term whose literal escaping or shortening changes
// (the rest are quoted from the dictionary's own bytes); it is built
// lazily, the first time a stream of that dictionary is served, then
// extended only by the terms added since. A failure before the first slab
// answers 504 (deadline, cancel) or 500; mid-stream failures cannot change
// the status line, so a truncated result closes the JSON with a nonstandard
// "error" member the client can detect. A panic while serving one request is
// contained at the handler boundary the same way: a 500 while the status
// line is still free, the error member once rows have gone out, and the
// panics counter on /stats; the server goes on serving.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rdfviews/internal/stats"
)

// Stream is one query's result stream, the shape of rdfviews.AnswerStream:
// column names, row slabs pulled on demand, and a mandatory Close.
type Stream interface {
	Columns() []string
	// AppendRows pulls the next slab and appends its rows to dst as SPARQL
	// JSON bindings, each value copied from the dictionary's rendered table:
	// a comma before each row (before the first too when comma is set), then
	// seps[i] before column i's literal, and end after the row. It returns
	// the extended dst and the number of rows appended, 0 at the end of the
	// stream; on an error, dst unchanged. The server pulls only through it.
	AppendRows(dst []byte, comma bool, seps [][]byte, end []byte) ([]byte, int, error)
	// Next returns the next slab of decoded rows (valid until the next pull;
	// nil = EOF). The server does not call it: it is kept for the
	// benchmark's traced wrapper (tracedStream, bench/trace.go), which embeds
	// Stream and overrides Next, until that wrapper's span moves to
	// AppendRows (ROADMAP B0).
	Next() ([][]string, error)
	Close()
}

// Backend answers query text with a result stream, honoring ctx cancellation
// mid-query. rdfviews.Views.AnswerQueryStream and
// rdfviews.Database.AnswerQueryStream both fit through BackendFunc.
type Backend interface {
	AnswerStream(ctx context.Context, query string) (Stream, error)
}

// BackendFunc adapts a function to Backend.
type BackendFunc func(ctx context.Context, query string) (Stream, error)

// AnswerStream calls f.
func (f BackendFunc) AnswerStream(ctx context.Context, query string) (Stream, error) {
	return f(ctx, query)
}

// Config parameterizes a Server; zero values select the documented defaults.
type Config struct {
	// Backend answers the queries. Required.
	Backend Backend
	// MaxInFlight bounds concurrently executing queries (default
	// 2×GOMAXPROCS — queries are CPU-bound, a small multiple keeps cores
	// busy while one blocks on a slow client).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 4×MaxInFlight). A full queue sheds new requests with 503.
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits before shedding
	// with 429 + Retry-After (default 1s).
	QueueTimeout time.Duration
	// DefaultTimeout is the per-request execution deadline when the client
	// sends none (default 30s); MaxTimeout caps what a client may request
	// via the timeout parameter (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// StatsExtra, when set, contributes extra sections to the /stats payload
	// (e.g. the backend's plan-cache snapshot) keyed by section name.
	StatsExtra func() map[string]any
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	return c
}

// Server is the HTTP front end. Create with New, serve with ListenAndServe
// or Serve (or mount Handler on an existing mux), stop with Shutdown.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	hs       *http.Server
	sem      chan struct{} // execution slots
	queue    chan struct{} // wait-queue slots
	encoders chan *encoder // idle encoders, at most one per execution slot
	counters stats.ServeCounters
}

// New validates the config and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("server: Config.Backend is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		queue:    make(chan struct{}, cfg.MaxQueue),
		encoders: make(chan *encoder, cfg.MaxInFlight),
	}
	s.mux.HandleFunc("/sparql", s.handleQuery)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.hs = &http.Server{Handler: s.mux}
	return s, nil
}

// Handler returns the server's handler (for httptest or an external mux).
func (s *Server) Handler() http.Handler { return s.mux }

// Counters exposes the request ledger (also served on /stats).
func (s *Server) Counters() *stats.ServeCounters { return &s.counters }

// ListenAndServe serves on addr until Shutdown; like net/http, it returns
// http.ErrServerClosed after a clean shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves on an existing listener (the caller picked the port).
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// Shutdown gracefully stops the server: no new requests, in-flight requests
// drain until done or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error { return s.hs.Shutdown(ctx) }

// maxQueryBytes bounds a raw application/sparql-query body.
const maxQueryBytes = 1 << 20

// queryText extracts the query from a request: the query form/URL parameter
// (GET or POST form), or the raw POST body under application/sparql-query. A
// raw body over maxQueryBytes is an *http.MaxBytesError, never a query cut
// short.
func queryText(w http.ResponseWriter, r *http.Request) (string, error) {
	if r.Method == http.MethodPost &&
		strings.HasPrefix(r.Header.Get("Content-Type"), "application/sparql-query") {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBytes))
		if err != nil {
			return "", fmt.Errorf("reading query body: %w", err)
		}
		if len(body) == 0 {
			return "", fmt.Errorf("empty query body")
		}
		return string(body), nil
	}
	q := r.FormValue("query")
	if q == "" {
		return "", fmt.Errorf("missing query parameter")
	}
	return q, nil
}

// durationSyntax is time.ParseDuration's syntax: an optional sign, then one
// or more decimal numbers each with a unit.
var durationSyntax = regexp.MustCompile(`^[-+]?((\d+\.?\d*|\.\d+)(ns|us|µs|μs|ms|s|m|h))+$`)

// timeoutFor resolves the request's execution deadline: the timeout
// parameter (a Go duration like 500ms, or a bare number of seconds), capped
// at MaxTimeout, defaulting to DefaultTimeout.
func (s *Server) timeoutFor(r *http.Request) (time.Duration, error) {
	raw := r.FormValue("timeout")
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil && raw[0] != '-' && durationSyntax.MatchString(raw) {
		// Well-formed with known units, so past the Duration range
		// (about 292 years), which ParseDuration calls invalid.
		return s.cfg.MaxTimeout, nil
	}
	if err != nil {
		secs, serr := strconv.ParseFloat(raw, 64)
		if serr != nil && !errors.Is(serr, strconv.ErrRange) {
			return 0, fmt.Errorf("bad timeout %q (want a duration like 500ms or seconds)", raw)
		}
		// Cap in seconds, before converting: past about 292 years the
		// conversion overflows to a negative Duration. !(secs > 0) is
		// also true of NaN.
		switch {
		case !(secs > 0):
			return 0, fmt.Errorf("bad timeout %q (must be positive)", raw)
		case secs >= s.cfg.MaxTimeout.Seconds():
			return s.cfg.MaxTimeout, nil
		}
		d = time.Duration(secs * float64(time.Second))
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad timeout %q (must be positive)", raw)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// admit applies admission control: fast-path slot acquire, else a bounded
// queue wait. It returns a release func on admission, or the HTTP status to
// shed with (503 queue-full, 429 queue-timeout; 0 status with nil release
// means the client is gone and the response does not matter).
func (s *Server) admit(ctx context.Context) (release func(), status int) {
	select {
	case s.sem <- struct{}{}:
		s.counters.Admitted.Add(1)
		return func() { <-s.sem }, 0
	default:
	}
	select {
	case s.queue <- struct{}{}:
	default:
		s.counters.ShedFull.Add(1)
		return nil, http.StatusServiceUnavailable
	}
	defer func() { <-s.queue }() // the queue slot is held only while waiting
	s.counters.Queued.Add(1)
	t := time.NewTimer(s.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		s.counters.Admitted.Add(1)
		return func() { <-s.sem }, 0
	case <-t.C:
		s.counters.ShedWait.Add(1)
		return nil, http.StatusTooManyRequests
	case <-ctx.Done():
		s.counters.Canceled.Add(1)
		return nil, 0
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.counters.Requests.Add(1)
	var rep reply
	defer func() {
		if p := recover(); p != nil {
			s.contain(w, &rep, p)
		}
	}()
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	query, err := queryText(w, r)
	if err != nil {
		s.counters.BadQuery.Add(1)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	timeout, err := s.timeoutFor(r)
	if err != nil {
		s.counters.BadQuery.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	release, status := s.admit(r.Context())
	if release == nil {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.QueueTimeout/time.Second)+1))
			http.Error(w, "server overloaded, retry later", status)
		}
		return
	}
	defer release()
	s.counters.InFlight.Add(1)
	defer s.counters.InFlight.Add(-1)

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	st, err := s.cfg.Backend.AnswerStream(ctx, query)
	if err != nil {
		if isCancel(err) {
			s.counters.Canceled.Add(1)
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
			return
		}
		s.counters.BadQuery.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer st.Close()
	s.writeResults(ctx, w, st, &rep)
}

// reply is what a request has put on the wire so far, for the handler's
// recover to answer a panic from.
type reply struct {
	enc  *encoder // the document's encoder while it is being written
	sent bool     // the status line is gone
}

// contain answers a panic raised while serving one request: a 500 while the
// status line is still free, otherwise the document closed with the error
// member after its last whole slab (enc.buf takes a slab only once it is
// appended whole). It counts the panic and lets the server go on;
// http.ErrAbortHandler, net/http's own way to abort a response, is
// re-raised. The encoder is not kept for a later request.
func (s *Server) contain(w http.ResponseWriter, rep *reply, p any) {
	if p == http.ErrAbortHandler {
		panic(p)
	}
	s.counters.Panics.Add(1)
	err := fmt.Errorf("internal error: %v", p)
	if !rep.sent {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	e := rep.enc
	if e == nil { // the response was finished before the panic
		return
	}
	e.end(err)
	(&countingWriter{w: w, c: &s.counters}).Write(e.buf)
}

// countingWriter counts response body bytes into the ledger.
type countingWriter struct {
	w io.Writer
	c *stats.ServeCounters
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Bytes.Add(int64(n))
	return n, err
}

// isCancel reports whether err is a deadline or a cancellation.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// acquire hands out an idle encoder, or a new one.
func (s *Server) acquire() *encoder {
	select {
	case e := <-s.encoders:
		return e
	default:
		return new(encoder)
	}
}

// release keeps the encoder for a later request unless a buffer outgrew
// what is worth keeping or every slot already has one.
func (s *Server) release(e *encoder) {
	if cap(e.buf) > maxKeptEncoderBytes || cap(e.next) > maxKeptEncoderBytes {
		return
	}
	select {
	case s.encoders <- e:
	default:
	}
}

// writeResults streams the SPARQL JSON result document: head, one binding
// object per row, tail. Each slab is encoded, then the next one is pulled
// and encoded beside it, and only then is the first written and flushed —
// so an answer of one slab is one write, and a longer one holds at most two
// encoded slabs while the pipeline produces the next. Backpressure is the
// write itself: no slab is pulled while an earlier one waits for the socket,
// so server-side result state stays O(batch).
func (s *Server) writeResults(ctx context.Context, w http.ResponseWriter, st Stream, rep *reply) {
	e := s.acquire()
	rep.enc = e
	e.begin(st.Columns())
	n, err := e.slab(st, &e.buf)
	if err != nil {
		// Nothing is on the wire yet, so the failure gets a status line.
		rep.enc = nil
		s.release(e)
		status := http.StatusInternalServerError
		if isCancel(err) {
			s.counters.Canceled.Add(1)
			status = http.StatusGatewayTimeout
		}
		rep.sent = true
		http.Error(w, err.Error(), status)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/sparql-results+json")
	h.Set("Cache-Control", "no-store")
	cw := &countingWriter{w: w, c: &s.counters}
	flusher, _ := w.(http.Flusher)

	for n > 0 {
		s.counters.Rows.Add(int64(n))
		if n, err = e.slab(st, &e.next); err != nil || n == 0 {
			break
		}
		rep.sent = true
		if _, werr := cw.Write(e.buf); werr != nil {
			// The client went away mid-write. Its disconnect cancels ctx
			// (bounded by the request deadline in any case); wait for that,
			// then give the pipeline one final pull so it stops at an engine
			// cancellation checkpoint instead of being abandoned mid-flight.
			s.counters.Canceled.Add(1)
			<-ctx.Done()
			e.slab(st, &e.next)
			rep.enc = nil
			s.release(e)
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		e.buf, e.next = e.next, e.buf[:0]
	}
	canceled := isCancel(err)
	e.end(err)
	rep.sent = true
	if _, werr := cw.Write(e.buf); werr != nil {
		canceled = true // the client left before the last (or only) write
	}
	rep.enc = nil
	s.release(e)
	if canceled {
		s.counters.Canceled.Add(1)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	out := map[string]any{"server": s.counters.Snapshot()}
	if s.cfg.StatsExtra != nil {
		for k, v := range s.cfg.StatsExtra() {
			out[k] = v
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
