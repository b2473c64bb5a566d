package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"rdfviews"
	"rdfviews/internal/server"
)

// spec is one workload's definition: how its deployment is laid out and
// selected, and what the measured phase does with it.
type spec struct {
	name, why string
	// subjectK/objectK is the store layout (1,0 = one flat shard).
	subjectK, objectK int
	// reasoning is the mode of the deployment's Recommend (serve-*) and of
	// select-plain; select-reform runs post and pre per repetition.
	reasoning rdfviews.Reasoning
	maintain  rdfviews.MaintainOptions
	serve     bool // the measured phase is one closed-loop /sparql client
	writer    bool // plus one open-loop update writer (serve-churn)
}

// generators is how many goroutines generate load in the measured phase.
func (s spec) generators() int {
	if s.writer {
		return 2
	}
	return 1
}

var specs = []spec{
	{name: "select-plain", subjectK: 1, reasoning: rdfviews.ReasoningNone,
		why: "search only: core, cost and cq canonical codes do all the work; reason, engine and server do none"},
	{name: "select-reform", subjectK: 1, reasoning: rdfviews.ReasoningPost,
		why: "selection with the RDFS folded in: reformulation, reformulated statistics and the union initial state dominate; select-plain is its bypass"},
	{name: "serve-point", subjectK: 2, objectK: 2, reasoning: rdfviews.ReasoningPre, serve: true,
		why: "one client, 26 skeletons that fit the plan cache, constants rotate: parse, lift, cache hit, HTTP and wire are the request; engine does little"},
	{name: "serve-adhoc", subjectK: 2, objectK: 2, reasoning: rdfviews.ReasoningPre, serve: true,
		why: "2048 skeletons round-robin, 8x the plan cache: every request reformulates, plans and compiles; bypass for plan-cache gains"},
	{name: "serve-scan", subjectK: 2, objectK: 2, reasoning: rdfviews.ReasoningPre, serve: true,
		why: "a dozen analytic shapes of 5k-50k rows: engine operators, store cursors, decode and JSON volume dominate; parse and cache are noise"},
	{name: "serve-churn", subjectK: 2, objectK: 2, reasoning: rdfviews.ReasoningPre, serve: true, writer: true,
		maintain: rdfviews.MaintainOptions{QueueDepth: 1024, StaleReads: rdfviews.ServeStale},
		why:      "serve-point's reads beside 1000 open-loop updates/s through async maintenance: the op is the update call, so a read-side gain that costs writers shows"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// deployment is one brought-up instance of the system under test.
type deployment struct {
	db  *rdfviews.Database // the reopened database (what persist gave back)
	wl  *rdfviews.Workload
	rec *rdfviews.Recommendation // serve-*: the deployment's views
	lv  *rdfviews.LiveViews

	plain  *endpoint // wired as cmd/rdfviews -serve
	traced *endpoint // traced runs only: a second, instrumented endpoint on the same views

	stages     map[string]time.Duration // set-up stage clock
	imageBytes int
}

// newDatabase builds the layout the spec names.
func (s spec) newDatabase() *rdfviews.Database {
	if s.subjectK == 1 && s.objectK == 0 {
		return rdfviews.NewDatabase()
	}
	return rdfviews.NewDatabaseDual(s.subjectK, s.objectK)
}

// searchOptions are the paper's defaults (DFS-AVF-STV) with a Timeout far
// beyond any run, so that MaxStates alone ends the search: the work per
// Recommend is then fixed and its time comparable.
func searchOptions(mode rdfviews.Reasoning, maxStates int) rdfviews.Options {
	return rdfviews.Options{Reasoning: mode, MaxStates: maxStates, Timeout: 10 * time.Minute}
}

// bringUp is the set-up the operator pays for: load the N-Triples, save and
// reopen through persist (the deployment runs on what persist returned),
// parse the workload and — for serve-* — select views, materialize them
// under maintenance, start the HTTP tier and warm it. select-* warm up with
// one Recommend instead, since selection is their measured phase. tr is nil
// except in traced runs.
func bringUp(s spec, in *inputs, sc scale, tr *tracer) (*deployment, error) {
	d := &deployment{stages: make(map[string]time.Duration)}
	clock := func(stage string, t0 time.Time) { d.stages[stage] += time.Since(t0) }

	t0 := time.Now()
	db := s.newDatabase()
	if in.schema != nil {
		if _, err := db.LoadSchema(bytes.NewReader(in.schema)); err != nil {
			return nil, fmt.Errorf("load schema: %w", err)
		}
	}
	if _, err := db.LoadGraph(bytes.NewReader(in.data)); err != nil {
		return nil, fmt.Errorf("load data: %w", err)
	}
	clock("load", t0)

	t0 = time.Now()
	var img bytes.Buffer
	if err := db.Save(&img); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	clock("save", t0)
	d.imageBytes = img.Len()
	t0 = time.Now()
	db, err := rdfviews.OpenDatabase(&img)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	clock("open", t0)
	if db.NumTriples() != in.triples {
		return nil, fmt.Errorf("persist round trip kept %d of %d triples", db.NumTriples(), in.triples)
	}
	d.db = db

	t0 = time.Now()
	if in.sparqlWL {
		d.wl, err = db.ParseSPARQLWorkload(in.workload)
	} else {
		d.wl, err = db.ParseWorkload(in.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("parse workload: %w", err)
	}
	clock("parse_workload", t0)

	if !s.serve {
		t0 = time.Now()
		_, err := selectOnce(s, d, sc)
		clock("warm", t0)
		return d, err
	}

	t0 = time.Now()
	d.rec, err = db.Recommend(d.wl, searchOptions(s.reasoning, sc.deployStates))
	if err != nil {
		return nil, fmt.Errorf("recommend: %w", err)
	}
	clock("select", t0)
	t0 = time.Now()
	d.lv, err = d.rec.MaintainWithOptions(s.maintain)
	if err != nil {
		return nil, fmt.Errorf("maintain: %w", err)
	}
	clock("materialize", t0)

	t0 = time.Now()
	if d.plain, err = startEndpoint(d.lv, nil); err != nil {
		d.close()
		return nil, err
	}
	if tr != nil {
		if d.traced, err = startEndpoint(d.lv, tr); err != nil {
			d.close()
			return nil, err
		}
	}
	// Warm: one pass over the distinct requests (at most a cache's worth —
	// serve-adhoc cannot be warmed by construction) fills the plan cache,
	// the connection and the allocator's size classes.
	c := newClient(d.plain.url)
	for i, q := range in.distinct {
		if i == 256 {
			break
		}
		if _, err := c.do(q, 0); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	c.close()
	clock("warm", t0)
	return d, nil
}

// close tears the deployment down and waits for its goroutines.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, e := range []*endpoint{d.traced, d.plain} {
		if e != nil {
			e.stop(ctx)
		}
	}
	if d.lv != nil {
		_ = d.lv.Close() // flush error would already have failed the run's verification
	}
}

// backendOf adapts LiveViews to the server exactly as cmd/rdfviews -serve
// does.
func backendOf(lv *rdfviews.LiveViews) server.Backend {
	return server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
		s, err := lv.AnswerQueryStream(ctx, q)
		if err != nil {
			return nil, err
		}
		return s, nil
	})
}

// endpoint is one running HTTP tier over a deployment's views.
type endpoint struct {
	srv  *server.Server
	hs   *http.Server // non-nil for the instrumented endpoint, which serves a wrapped handler
	url  string
	done chan struct{} // closed when the accept loop has returned
}

// startEndpoint starts the HTTP tier on a loopback port. With tr == nil it is
// wired exactly as cmd/rdfviews -serve wires it: server.New over
// LiveViews.AnswerQueryStream, served by the server itself. With a tracer the
// backend and the handler are wrapped in span recorders (trace.go).
func startEndpoint(lv *rdfviews.LiveViews, tr *tracer) (*endpoint, error) {
	backend := backendOf(lv)
	if tr != nil {
		backend = tracedBackend{inner: backend, tr: tr}
	}
	srv, err := server.New(server.Config{
		Backend: backend,
		StatsExtra: func() map[string]any {
			return map[string]any{"plan_cache": lv.CacheStats(), "shard_pruning": lv.PruneStats()}
		},
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{srv: srv, url: "http://" + l.Addr().String() + "/sparql", done: make(chan struct{})}
	serve := srv.Serve
	if tr != nil {
		e.hs = &http.Server{Handler: tracedHandler(srv.Handler(), tr)}
		serve = e.hs.Serve
	}
	go func() {
		defer close(e.done)
		_ = serve(l) // http.ErrServerClosed at shutdown
	}()
	return e, nil
}

// stop drains in-flight requests and waits for the accept loop to end.
func (e *endpoint) stop(ctx context.Context) {
	if e.hs != nil {
		_ = e.hs.Shutdown(ctx) // a drain timeout only means abandoned keep-alives
	} else {
		_ = e.srv.Shutdown(ctx)
	}
	<-e.done
}

// client is one keep-alive HTTP client of /sparql.
type client struct {
	hc  *http.Client
	url string
	buf []byte
}

func newClient(url string) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute},
		url: url,
		buf: make([]byte, 64<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reqHeader carries the trace request id to the instrumented endpoint.
const reqHeader = "X-Bench-Req"

func (c *client) post(query string, reqID int) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader([]byte(query)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	if reqID != 0 {
		req.Header.Set(reqHeader, strconv.Itoa(reqID))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		resp.Body.Close()
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

var errTruncated = errors.New("result document does not end in ]}} (server reported a mid-stream error)")

// do issues one request and drains the response without decoding it,
// checking the status and that the document is complete: the server closes a
// failed stream with an "error" member instead of "]}}". It returns the body
// size.
func (c *client) do(query string, reqID int) (int, error) {
	resp, err := c.post(query, reqID)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var tail [3]byte
	total := 0
	for {
		n, err := resp.Body.Read(c.buf)
		if n >= 3 {
			copy(tail[:], c.buf[n-3:n])
		} else if n > 0 {
			copy(tail[:], append(tail[n:], c.buf[:n]...))
		}
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, err
		}
	}
	if string(tail[:]) != "]}}" {
		return total, errTruncated
	}
	return total, nil
}

// heapAfterGC is the live heap once garbage is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
