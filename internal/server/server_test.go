package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfviews"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/server"
)

// ---------------------------------------------------------------------------
// Fixtures

// liveBackend adapts a maintained deployment to the server's Backend.
func liveBackend(lv *rdfviews.Views) server.Backend {
	return server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
		s, err := lv.AnswerQueryStream(ctx, q)
		if err != nil {
			return nil, err
		}
		return s, nil
	})
}

// dbBackend adapts a bare database to the server's Backend.
func dbBackend(db *rdfviews.Database) server.Backend {
	return server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
		s, err := db.AnswerQueryStream(ctx, q, rdfviews.ReasoningNone)
		if err != nil {
			return nil, err
		}
		return s, nil
	})
}

// serveWorld builds a maintained deployment over a synthetic graph: entity
// stars (hasPainted / livesIn / isParentOf / rdf:type) sized so every query
// shape below returns rows, on a flat or sharded store.
func serveWorld(t testing.TB, shards int, opts rdfviews.MaintainOptions) *rdfviews.Views {
	t.Helper()
	db := rdfviews.NewDatabaseSharded(shards)
	var data strings.Builder
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&data, "e%d hasPainted w%d .\n", i, i%37)
		fmt.Fprintf(&data, "e%d livesIn city%d .\n", i, i%11)
		fmt.Fprintf(&data, "e%d rdf:type painter .\n", i)
		if i%3 == 0 {
			fmt.Fprintf(&data, "e%d isParentOf e%d .\n", i, (i+1)%600)
		}
	}
	db.MustLoadGraphString(data.String())
	w := db.MustParseWorkload(
		`q(X, Z) :- t(X, hasPainted, w3), t(X, isParentOf, Y), t(Y, hasPainted, Z)` + "\n" +
			`q(A, B) :- t(A, hasPainted, B)`)
	rec, err := db.Recommend(w, rdfviews.Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := rec.MaintainWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lv.Close() })
	return lv
}

func newTestServer(t testing.TB, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// sparqlJSON mirrors the wire document (including the nonstandard error
// member a truncated stream closes with).
type sparqlJSON struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]struct {
			Type  string `json:"type"`
			Value string `json:"value"`
		} `json:"bindings"`
	} `json:"results"`
	Error string `json:"error"`
}

// fetch answers one query over HTTP and decodes the result into rows ordered
// by head.vars.
func fetch(t *testing.T, base, query string) (status int, vars []string, rows [][]string, errMember string) {
	t.Helper()
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil, ""
	}
	var doc sparqlJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad result JSON: %v\n%s", err, body)
	}
	for _, b := range doc.Results.Bindings {
		row := make([]string, len(doc.Head.Vars))
		for i, v := range doc.Head.Vars {
			row[i] = b[v].Value
		}
		rows = append(rows, row)
	}
	return resp.StatusCode, doc.Head.Vars, rows, doc.Error
}

func canon(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

func sameAnswers(a, b [][]string) bool {
	ca, cb := canon(a), canon(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// E2E differential: HTTP answers must equal the library surface

// httpShapes is the plan-shape matrix the differential runs: view routes
// (exact, permuted head), store-path joins, stars, scans, type probes, a full
// scan and the SPARQL syntax — nine distinct shapes.
var httpShapes = []string{
	`q(X, Z) :- t(X, hasPainted, w3), t(X, isParentOf, Y), t(Y, hasPainted, Z)`, // view route
	`q(A, B) :- t(A, hasPainted, B)`,                                            // view route, scan
	`q(Z, X) :- t(X, hasPainted, w3), t(X, isParentOf, Y), t(Y, hasPainted, Z)`, // view route, permuted head
	`q(X, Z) :- t(X, hasPainted, w5), t(X, isParentOf, Y), t(Y, hasPainted, Z)`, // store path, same skeleton
	`q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`,                       // store path, chain
	`q(W, C) :- t(e42, hasPainted, W), t(e42, livesIn, C)`,                      // store path, entity star
	`q(X) :- t(X, rdf:type, painter)`,                                           // store path, type probe
	`q(X, P, Y) :- t(X, P, Y)`,                                                  // store path, full scan
	`SELECT ?a ?b WHERE { ?a <hasPainted> ?b }`,                                 // SPARQL surface
}

// TestServerHTTPDifferential checks, for every shape in the matrix, that the
// HTTP endpoint returns exactly what Views.AnswerQuery returns — cold
// (first request compiles) and warm (second request hits the plan cache) —
// over both flat and 4-shard stores.
func TestServerHTTPDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			lv := serveWorld(t, shards, rdfviews.MaintainOptions{})
			_, hs := newTestServer(t, server.Config{Backend: liveBackend(lv)})
			for _, qs := range httpShapes {
				want, err := lv.AnswerQuery(qs)
				if err != nil {
					t.Fatalf("AnswerQuery(%q): %v", qs, err)
				}
				for _, pass := range []string{"cold", "warm"} {
					status, _, rows, errMember := fetch(t, hs.URL, qs)
					if status != http.StatusOK {
						t.Fatalf("%s %q: status %d", pass, qs, status)
					}
					if errMember != "" {
						t.Fatalf("%s %q: truncated result: %s", pass, qs, errMember)
					}
					if !sameAnswers(rows, want) {
						t.Fatalf("%s %q: HTTP diverged from AnswerQuery\n got: %d rows\nwant: %d rows",
							pass, qs, len(rows), len(want))
					}
				}
			}
		})
	}
}

// TestServerHTTPHeadVars pins the head.vars wire metadata to the query's own
// variable names, and POST in both supported encodings.
func TestServerHTTPHeadVars(t *testing.T) {
	lv := serveWorld(t, 1, rdfviews.MaintainOptions{})
	_, hs := newTestServer(t, server.Config{Backend: liveBackend(lv)})

	_, vars, rows, _ := fetch(t, hs.URL, `SELECT ?who ?work WHERE { ?who <hasPainted> ?work }`)
	if strings.Join(vars, ",") != "who,work" {
		t.Fatalf("head.vars = %v", vars)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}

	// POST form.
	resp, err := http.PostForm(hs.URL+"/sparql", url.Values{"query": {`q(A, B) :- t(A, hasPainted, B)`}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST form status %d", resp.StatusCode)
	}

	// POST raw SPARQL body.
	resp, err = http.Post(hs.URL+"/sparql", "application/sparql-query",
		strings.NewReader(`SELECT ?a ?b WHERE { ?a <hasPainted> ?b }`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST sparql-query status %d", resp.StatusCode)
	}
}

// TestServerHTTPBadQuery pins the 400 path and that the positioned SPARQL
// parse error reaches the client.
func TestServerHTTPBadQuery(t *testing.T) {
	lv := serveWorld(t, 1, rdfviews.MaintainOptions{})
	srv, hs := newTestServer(t, server.Config{Backend: liveBackend(lv)})

	resp, err := http.Get(hs.URL + "/sparql?query=" + url.QueryEscape(`SELECT ?x WHERE { ?x p }`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "sparql:1:") {
		t.Fatalf("parse error lost its position: %s", body)
	}

	// Missing query parameter.
	resp, err = http.Get(hs.URL + "/sparql")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing query: status %d, want 400", resp.StatusCode)
	}
	if srv.Counters().BadQuery.Load() < 2 {
		t.Fatalf("bad-query counter = %d, want >= 2", srv.Counters().BadQuery.Load())
	}
}

// TestServerHTTPOversizedBody: a raw application/sparql-query body one byte
// over the limit is refused with 413 — not cut at the limit and its first
// MiB, a valid query, answered.
func TestServerHTTPOversizedBody(t *testing.T) {
	srv, hs := newTestServer(t, server.Config{
		Backend: server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
			t.Errorf("backend asked to answer %d bytes of a refused body", len(q))
			return &sliceStream{cols: []string{"x"}}, nil
		}),
	})
	query := `SELECT ?a ?b WHERE { ?a <hasPainted> ?b }`
	body := query + strings.Repeat(" ", 1<<20-len(query)) + "}"
	resp, err := http.Post(hs.URL+"/sparql", "application/sparql-query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB + 1 body: status %d, want 413", resp.StatusCode)
	}
	if got := srv.Counters().BadQuery.Load(); got != 1 {
		t.Fatalf("bad-query counter = %d, want 1", got)
	}
}

// ---------------------------------------------------------------------------
// Admission control

// gatedBackend blocks each query until the gate is released, signalling
// entry; it makes slot occupancy deterministic for the admission tests.
type gatedBackend struct {
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedBackend) AnswerStream(ctx context.Context, q string) (server.Stream, error) {
	g.entered <- struct{}{}
	select {
	case <-g.gate:
		return &sliceStream{cols: []string{"x"}, slabs: [][][]string{{{"v"}}}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// sliceStream is a canned Stream.
type sliceStream struct {
	cols  []string
	slabs [][][]string
	i     int
	err   error // returned after the slabs are exhausted (nil = clean EOF)
}

func (s *sliceStream) Columns() []string { return s.cols }
func (s *sliceStream) Next() ([][]string, error) {
	if s.i < len(s.slabs) {
		s.i++
		return s.slabs[s.i-1], nil
	}
	return nil, s.err
}
func (s *sliceStream) AppendRows(dst []byte, comma bool, seps [][]byte, end []byte) ([]byte, int, error) {
	return appendSlab(s.Next, dst, comma, seps, end)
}
func (s *sliceStream) Close() {}

// appendSlab pulls a canned slab and appends it from IDs, the way the
// library's streams do: every value a literal of a dictionary of the slab's
// own, copied from its rendered table.
func appendSlab(next func() ([][]string, error), dst []byte, comma bool, seps [][]byte, end []byte) ([]byte, int, error) {
	slab, err := next()
	if err != nil || slab == nil {
		return dst, 0, err
	}
	d := dict.New()
	rows := make([][]dict.ID, len(slab))
	for i, row := range slab {
		for _, v := range row {
			rows[i] = append(rows[i], d.Encode(rdf.NewLiteral(v)))
		}
	}
	return dict.AppendRows(d.Literals(), dst, comma, rows, seps, end), len(slab), nil
}

// TestServerAdmissionControl walks the full admission state machine with a
// deterministic backend: slot held -> second request queues -> third sheds
// 503 (queue full) -> the queued one sheds 429 after the queue timeout ->
// released slot serves normally.
func TestServerAdmissionControl(t *testing.T) {
	gb := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	srv, hs := newTestServer(t, server.Config{
		Backend:      gb,
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueTimeout: 200 * time.Millisecond,
	})

	get := func() int {
		resp, err := http.Get(hs.URL + "/sparql?query=q")
		if err != nil {
			t.Errorf("GET: %v", err)
			return -1
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// r1 occupies the only slot.
	r1 := make(chan int, 1)
	go func() { r1 <- get() }()
	<-gb.entered

	// r2 takes the only queue slot.
	r2 := make(chan int, 1)
	go func() { r2 <- get() }()
	waitFor(t, "r2 queued", func() bool { return srv.Counters().Queued.Load() == 1 })

	// r3 finds the queue full: immediate 503.
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("queue-full request: status %d, want 503", got)
	}

	// r2 times out in the queue: 429.
	if got := <-r2; got != http.StatusTooManyRequests {
		t.Fatalf("queue-timeout request: status %d, want 429", got)
	}

	// Release the slot: r1 completes normally.
	close(gb.gate)
	if got := <-r1; got != http.StatusOK {
		t.Fatalf("admitted request: status %d, want 200", got)
	}

	snap := srv.Counters().Snapshot()
	if snap.Admitted != 1 || snap.Queued != 1 || snap.ShedFull != 1 || snap.ShedWait != 1 {
		t.Fatalf("ledger = %+v", snap)
	}
}

// TestServerOverloadLatency is the acceptance test for admission control
// under overload: a closed loop at twice MaxInFlight must shed, and keep the
// admitted p50 within 3× the uncontended p50 — excess demand sheds at the
// door (429/503) instead of queueing behind execution, where the p50 would
// be about 10× (the 3× leaves CI headroom).
func TestServerOverloadLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive load test in -short mode")
	}
	const service = 5 * time.Millisecond
	const slots = 4
	_, hs := newTestServer(t, server.Config{
		Backend: server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
			select {
			case <-time.After(service):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &sliceStream{cols: []string{"x"}}, nil
		}),
		MaxInFlight:  slots,
		MaxQueue:     1,
		QueueTimeout: time.Millisecond,
	})

	base, _ := closedLoop(t, hs.URL, slots, 700*time.Millisecond) // at capacity: no contention
	over, shed := closedLoop(t, hs.URL, 2*slots, 700*time.Millisecond)
	if len(base) == 0 || len(over) == 0 {
		t.Fatalf("admitted %d requests at capacity and %d at 2× capacity, want some of each", len(base), len(over))
	}
	if shed == 0 {
		t.Fatalf("2× capacity shed nothing (%d admitted): admission control inactive", len(over))
	}
	baseP50, overP50 := base[len(base)/2], over[len(over)/2]
	if overP50 > 3*baseP50 {
		t.Fatalf("admitted p50 under 2× load = %v, at capacity %v: admission control failed to bound latency", overP50, baseP50)
	}
	t.Logf("p50 at capacity %v (%d admitted); at 2× %v (%d admitted, %d shed)", baseP50, len(base), overP50, len(over), shed)
}

// closedLoop runs workers closed-loop clients against /sparql for d — each
// sends its next request when its previous one is answered — and returns the
// sorted latencies of the admitted (200) requests and the number shed
// (429/503).
func closedLoop(t *testing.T, base string, workers int, d time.Duration) (admitted []time.Duration, shed int) {
	t.Helper()
	// One kept-alive connection per worker: shed answers return at once, and a
	// fresh connection per request would run the host out of ports.
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()
	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				start := time.Now()
				resp, err := client.Get(base + "/sparql?query=q")
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				took := time.Since(start)
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					admitted = append(admitted, took)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed++
				default:
					t.Errorf("status %d", resp.StatusCode)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(admitted, func(i, j int) bool { return admitted[i] < admitted[j] })
	return admitted, shed
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Deadlines and disconnects

// TestServerDeadline runs a query whose stream outlives its deadline: before
// first output — the backend never returns a stream, or the stream's first
// pull never returns a slab — the server answers 504; mid-stream the result
// closes with the error member.
func TestServerDeadline(t *testing.T) {
	// Backend A: blocks before returning a stream.
	gb := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	defer close(gb.gate)
	srv, hs := newTestServer(t, server.Config{Backend: gb})
	resp, err := http.Get(hs.URL + "/sparql?query=q&timeout=50ms")
	if err != nil {
		t.Fatal(err)
	}
	<-gb.entered
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("pre-stream deadline: status %d, want 504", resp.StatusCode)
	}
	if srv.Counters().Canceled.Load() == 0 {
		t.Fatal("deadline not recorded in the ledger")
	}

	// Backend A': a stream whose first pull waits out the context. Nothing is
	// on the wire yet, so this too is a 504 and not a 200 with an error member;
	// a first pull that fails for another reason is a 500 with the message.
	failFirst := func(fail func(ctx context.Context) error) server.Backend {
		return server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
			return streamFunc{cols: []string{"x"}, next: func() ([][]string, error) { return nil, fail(ctx) }}, nil
		})
	}
	srvA, hsA := newTestServer(t, server.Config{
		Backend:        failFirst(func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }),
		DefaultTimeout: 50 * time.Millisecond,
	})
	if status, _, _, _ := fetch(t, hsA.URL, "q"); status != http.StatusGatewayTimeout {
		t.Fatalf("deadline on the first pull: status %d, want 504", status)
	}
	if srvA.Counters().Canceled.Load() != 1 {
		t.Fatalf("first-pull deadline: canceled = %d, want 1", srvA.Counters().Canceled.Load())
	}
	_, hsF := newTestServer(t, server.Config{
		Backend: failFirst(func(context.Context) error { return fmt.Errorf("extent unreadable") }),
	})
	resp, err = http.Get(hsF.URL + "/sparql?query=q")
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(msg), "extent unreadable") {
		t.Fatalf("failure on the first pull: status %d, body %q; want 500 with the message", resp.StatusCode, msg)
	}

	// Backend B: one slab, then the stream waits out the context.
	backend := server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
		first := true
		return streamFunc{
			cols: []string{"x"},
			next: func() ([][]string, error) {
				if first {
					first = false
					return [][]string{{"v"}}, nil
				}
				<-ctx.Done()
				return nil, ctx.Err()
			},
		}, nil
	})
	_, hs2 := newTestServer(t, server.Config{Backend: backend, DefaultTimeout: 100 * time.Millisecond})
	status, _, rows, errMember := fetch(t, hs2.URL, "q")
	_ = status
	if len(rows) != 1 {
		t.Fatalf("rows before deadline = %d, want 1", len(rows))
	}
	if !strings.Contains(errMember, "deadline") && !strings.Contains(errMember, "cancel") {
		t.Fatalf("mid-stream deadline left no error member (got %q)", errMember)
	}
}

// streamFunc adapts closures to Stream.
type streamFunc struct {
	cols []string
	next func() ([][]string, error)
}

func (s streamFunc) Columns() []string         { return s.cols }
func (s streamFunc) Next() ([][]string, error) { return s.next() }
func (s streamFunc) AppendRows(dst []byte, comma bool, seps [][]byte, end []byte) ([]byte, int, error) {
	return appendSlab(s.next, dst, comma, seps, end)
}
func (s streamFunc) Close() {}

// TestServerDisconnectCancelsQuery is the acceptance test for disconnect
// propagation: a client that walks away mid-stream must stop the running
// engine pipeline, observable as an increase in the engine's cancellation
// checkpoint counter.
func TestServerDisconnectCancelsQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk load in -short mode")
	}
	db := rdfviews.NewDatabase()
	var data strings.Builder
	for i := 0; i < 80000; i++ {
		fmt.Fprintf(&data, "subj_%08d_padpadpadpad p%d obj_%08d_padpadpadpadpad .\n", i, i%8, i)
	}
	db.MustLoadGraphString(data.String())
	_, hs := newTestServer(t, server.Config{Backend: dbBackend(db)})

	query := url.QueryEscape(`q(X, P, Y) :- t(X, P, Y)`)
	for attempt := 0; attempt < 3; attempt++ {
		before := engine.CancelStops()
		resp, err := http.Get(hs.URL + "/sparql?query=" + query)
		if err != nil {
			t.Fatal(err)
		}
		// Read a little of the multi-megabyte result, then walk away.
		io.ReadFull(resp.Body, make([]byte, 4096))
		resp.Body.Close()

		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if engine.CancelStops() > before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Fatal("client disconnect never reached an engine cancellation checkpoint")
}

// TestServerPanicContained: a panic inside one request's stream is that
// request's failure, not the connection's or the server's. A panic before
// any row has gone out answers 500; one after closes the document with the
// error member, keeping the whole slabs encoded before it; both are counted
// on /stats, and the next request is served. net/http's own
// http.ErrAbortHandler still aborts the response and is not counted.
func TestServerPanicContained(t *testing.T) {
	slab := [][]string{{"v"}}
	// panicAt streams whole slabs and panics with p on pull number n.
	panicAt := func(n int, p any) server.Backend {
		return server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
			if q == "fine" {
				return &sliceStream{cols: []string{"x"}, slabs: [][][]string{slab}}, nil
			}
			pulls := 0
			return streamFunc{cols: []string{"x"}, next: func() ([][]string, error) {
				if pulls++; pulls == n {
					panic(p)
				}
				return slab, nil
			}}, nil
		})
	}
	panics := func(srv *server.Server, hs *httptest.Server) int64 {
		t.Helper()
		resp, err := http.Get(hs.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Server struct {
				Panics int64 `json:"panics"`
			} `json:"server"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		if doc.Server.Panics != srv.Counters().Panics.Load() {
			t.Fatalf("/stats panics = %d, ledger %d", doc.Server.Panics, srv.Counters().Panics.Load())
		}
		return doc.Server.Panics
	}
	fine := func(hs *httptest.Server) {
		t.Helper()
		if status, _, rows, errMember := fetch(t, hs.URL, "fine"); status != http.StatusOK || len(rows) != 1 || errMember != "" {
			t.Fatalf("request after a panic: status %d, %d rows, error %q", status, len(rows), errMember)
		}
	}

	// Panics on the first and on the second pull: no row is on the wire yet
	// (the first slab is written only once the second is pulled), so 500.
	for _, n := range []int{1, 2} {
		srv, hs := newTestServer(t, server.Config{Backend: panicAt(n, "extent torn")})
		resp, err := http.Get(hs.URL + "/sparql?query=q")
		if err != nil {
			t.Fatalf("panic on pull %d dropped the connection: %v", n, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(msg), "extent torn") {
			t.Fatalf("panic on pull %d: status %d, body %q; want 500 with the panic", n, resp.StatusCode, msg)
		}
		if got := panics(srv, hs); got != 1 {
			t.Fatalf("panic on pull %d: panics = %d, want 1", n, got)
		}
		fine(hs)
	}

	// Panic on the fifth pull: three slabs have gone out and the fourth was
	// encoded whole, so the document keeps four rows and ends in the error
	// member.
	srv, hs := newTestServer(t, server.Config{Backend: panicAt(5, "extent torn")})
	status, _, rows, errMember := fetch(t, hs.URL, "q")
	if status != http.StatusOK || len(rows) != 4 || !strings.Contains(errMember, "extent torn") {
		t.Fatalf("mid-stream panic: status %d, %d rows, error member %q; want 200, 4 rows, the panic", status, len(rows), errMember)
	}
	if got := panics(srv, hs); got != 1 {
		t.Fatalf("mid-stream panic: panics = %d, want 1", got)
	}
	fine(hs)

	// http.ErrAbortHandler is net/http's abort: re-raised, not answered.
	srv, hs = newTestServer(t, server.Config{Backend: panicAt(5, http.ErrAbortHandler)})
	if resp, err := http.Get(hs.URL + "/sparql?query=q"); err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatal("http.ErrAbortHandler did not abort the response")
		}
	}
	if got := panics(srv, hs); got != 0 {
		t.Fatalf("http.ErrAbortHandler counted as a panic: %d", got)
	}
	fine(hs)
}

// ---------------------------------------------------------------------------
// Stats and shutdown

func TestServerStatsEndpoint(t *testing.T) {
	lv := serveWorld(t, 1, rdfviews.MaintainOptions{})
	_, hs := newTestServer(t, server.Config{
		Backend:    liveBackend(lv),
		StatsExtra: func() map[string]any { return map[string]any{"plan_cache": lv.CacheStats()} },
	})
	if s, _, _, _ := fetch(t, hs.URL, `q(A, B) :- t(A, hasPainted, B)`); s != http.StatusOK {
		t.Fatalf("warmup status %d", s)
	}
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Server struct {
			Requests int64 `json:"requests"`
			Admitted int64 `json:"admitted"`
			Rows     int64 `json:"rows_streamed"`
			Bytes    int64 `json:"bytes_written"`
		} `json:"server"`
		PlanCache map[string]any `json:"plan_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Server.Requests < 1 || doc.Server.Admitted < 1 || doc.Server.Rows == 0 || doc.Server.Bytes == 0 {
		t.Fatalf("stats payload incomplete: %+v", doc.Server)
	}
	if doc.PlanCache == nil {
		t.Fatal("StatsExtra section missing")
	}
}

// TestServerGracefulShutdown starts a real listener, parks one in-flight
// streaming request, shuts down, and checks the request completed with a
// full result while new connections are refused.
func TestServerGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	backend := server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
		first := true
		return streamFunc{
			cols: []string{"x"},
			next: func() ([][]string, error) {
				if first {
					first = false
					return [][]string{{"v1"}}, nil
				}
				<-release
				return nil, nil
			},
		}, nil
	})
	srv, err := server.New(server.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	l, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	var wg sync.WaitGroup
	wg.Add(1)
	bodyErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(base + "/sparql?query=q")
		if err != nil {
			bodyErr <- err
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			bodyErr <- err
			return
		}
		if !strings.HasSuffix(strings.TrimSpace(string(body)), "]}}") {
			bodyErr <- fmt.Errorf("truncated body: %s", body)
			return
		}
		bodyErr <- nil
	}()

	// Let the request get in flight, then shut down while it streams.
	time.Sleep(50 * time.Millisecond)
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond)
	close(release) // the in-flight stream finishes now

	if err := <-bodyErr; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	wg.Wait()
}

func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// ---------------------------------------------------------------------------
// Concurrency stress (run under -race in CI)

// TestServerHTTPChurnConcurrent hammers the HTTP endpoint while asynchronous
// maintenance churns the underlying extents: concurrent clients, concurrent
// writers, and a sampler asserting the maintainer's publish generation never
// moves backward. After the churn settles (Flush), HTTP answers must equal
// the library surface exactly.
func TestServerHTTPChurnConcurrent(t *testing.T) {
	lv := serveWorld(t, 4, rdfviews.MaintainOptions{QueueDepth: 256})
	_, hs := newTestServer(t, server.Config{Backend: liveBackend(lv)})

	queries := []string{
		`q(A, B) :- t(A, hasPainted, B)`,
		`q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
		`q(X) :- t(X, rdf:type, painter)`,
		`SELECT ?a ?b WHERE { ?a <hasPainted> ?b }`,
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(err error) {
		if err != nil {
			select {
			case errs <- err:
			default:
			}
		}
	}
	stop := make(chan struct{})

	// Sampler: the publish generation is monotone under churn.
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		last := lv.PublishGen()
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := lv.PublishGen()
			if g < last {
				report(fmt.Errorf("publish generation moved backward: %d -> %d", last, g))
				return
			}
			last = g
			time.Sleep(time.Millisecond)
		}
	}()

	// Writers: insert/delete churn through the maintenance queue.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				line := fmt.Sprintf("churn%d_%d hasPainted churnwork%d .", w, i, i%5)
				if _, err := lv.Insert(line); err != nil {
					report(err)
					return
				}
				if i%3 == 0 {
					if _, err := lv.Delete(line); err != nil {
						report(err)
						return
					}
				}
			}
		}(w)
	}

	// Readers: HTTP clients over every query shape.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				qs := queries[(r+i)%len(queries)]
				status, _, _, errMember := fetchQuiet(hs.URL, qs)
				if status != http.StatusOK {
					report(fmt.Errorf("churn read %q: status %d", qs, status))
					return
				}
				if errMember != "" {
					report(fmt.Errorf("churn read %q: truncated: %s", qs, errMember))
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(stop)
	samplerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Post-churn: settle maintenance, then HTTP must agree with the library.
	if err := lv.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, qs := range queries {
		want, err := lv.AnswerQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		status, _, rows, errMember := fetchQuiet(hs.URL, qs)
		if status != http.StatusOK || errMember != "" {
			t.Fatalf("post-churn %q: status %d, error %q", qs, status, errMember)
		}
		if !sameAnswers(rows, want) {
			t.Fatalf("post-churn %q: HTTP diverged (%d rows vs %d)", qs, len(rows), len(want))
		}
	}
}

// fetchQuiet is fetch without the testing.T plumbing, usable from goroutines.
func fetchQuiet(base, query string) (status int, vars []string, rows [][]string, errMember string) {
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		return -1, nil, nil, err.Error()
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1, nil, nil, err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil, ""
	}
	var doc sparqlJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return -1, nil, nil, err.Error()
	}
	for _, b := range doc.Results.Bindings {
		row := make([]string, len(doc.Head.Vars))
		for i, v := range doc.Head.Vars {
			row[i] = b[v].Value
		}
		rows = append(rows, row)
	}
	return resp.StatusCode, doc.Head.Vars, rows, doc.Error
}
