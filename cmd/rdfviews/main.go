// Command rdfviews is the view-selection wizard: given an RDF dataset, an
// optional RDF Schema, and a workload of conjunctive queries, it recommends
// the views to materialize and the rewriting of every workload query
// (the RDFViewS tool of the paper, Section 6 / [10]).
//
// Usage:
//
//	rdfviews -data data.nt -queries workload.cq [-schema schema.nt] \
//	         [-strategy dfs] [-reasoning post] [-timeout 10s] [-answer] \
//	         [-explain-physical] [-shards 4] \
//	         [-updates updates.nt] [-async-maintain 1024] [-stale-reads wait-fresh] \
//	         [-cache-stats]
//
// The workload file holds one query per line:
//
//	q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)
//
// -shards N (1–256) hash-partitions the triple store across N shards (by
// subject): subject-bound lookups then open one shard, and updates touch only
// the owning shard's indexes. -object-shards N (0–256) adds an object-hash
// replica side, so object-bound lookups open one shard too. The
// -explain-physical plans annotate every scan with the shards it opens
// (shards=m/K). The default (1, 0) is the classic single-table layout. Every
// query runs on one goroutine; rewriting execution over the view extents —
// the answering tier — builds each hash join over the side chosen from the
// extent cardinalities (build=left/right under -explain-physical).
//
// -updates streams triple updates through the maintained views (one triple
// per line, inserted; a "- " prefix deletes). -async-maintain N maintains
// the views asynchronously behind a change queue of depth N: updates return
// once queued, a background refresher folds them into the extents in
// batches, and the reported lag/flush numbers show the freshness lifecycle.
// -stale-reads selects whether -answer serves the last published extents
// (serve-stale) or flushes first (wait-fresh).
//
// -cache-stats answers the workload ad hoc through the serving-tier plan
// cache (Views.AnswerQuery) instead of the pre-compiled rewritings, then
// prints the cache ledger: hits, misses, evictions, invalidations and the
// compile time paid versus amortized away. Workload queries sharing a lifted
// constant shape hit the same cached artifact, so the ledger shows what plan
// caching would buy the workload as a query stream. Implies the live
// maintenance path, so the ledger is the one -serve reports.
//
// -serve ADDR starts the SPARQL-over-HTTP serving tier on ADDR (e.g. :8080)
// over the maintained views: GET/POST /sparql streams SPARQL JSON results
// with per-request deadlines and admission control, /stats reports the
// request and plan-cache ledgers. SIGINT/SIGTERM drains in-flight requests
// and exits. Implies the live maintenance path.
//
// A command line with an unknown flag, a malformed value, a -stale-reads
// outside its vocabulary or a count outside its range (-shards 1–256,
// -object-shards 0–256, -async-maintain and -maxrows ≥ 0) exits with status
// 2 before anything runs; a failed run exits with status 1.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rdfviews"
	"rdfviews/internal/server"
	"rdfviews/internal/store"
)

// config is one parsed command line.
type config struct {
	dataPath, schemaPath, queryPath string
	strategy, reasoning             string
	timeout                         time.Duration
	answer                          bool
	maxRows                         int
	explainPhy                      bool
	shards, objShards               int
	updates                         string
	asyncQueue                      int
	staleReads                      rdfviews.StaleReadPolicy
	cacheStats                      bool
	serveAddr                       string
}

// parseFlags parses the command line. It returns the config to run, or nil
// and the exit status: 0 after -h, 2 for a command line the flag set rejects
// (reported on stderr) or one missing -data or -queries.
func parseFlags(args []string, stderr io.Writer) (*config, int) {
	fs := flag.NewFlagSet("rdfviews", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.StringVar(&c.dataPath, "data", "", "N-Triples data file (required)")
	fs.StringVar(&c.schemaPath, "schema", "", "RDFS statements file (optional)")
	fs.StringVar(&c.queryPath, "queries", "", "workload file, one query per line (required)")
	fs.StringVar(&c.strategy, "strategy", "dfs", "dfs|gstr|exnaive|exstr|pruning|greedy|heuristic")
	fs.StringVar(&c.reasoning, "reasoning", "", "none|saturate|post|pre (default: post when a schema is present)")
	fs.DurationVar(&c.timeout, "timeout", 10*time.Second, "search time budget (stoptime)")
	fs.BoolVar(&c.answer, "answer", false, "materialize the views and print each query's answers")
	fs.IntVar(&c.maxRows, "maxrows", 10, "max answer rows to print per query")
	fs.BoolVar(&c.explainPhy, "explain-physical", false, "print the physical plans: view materialization pipelines (scan permutations, merge/sort/hash joins with build sides and row estimates) and rewriting operator trees")
	fs.IntVar(&c.shards, "shards", 1, "hash-partition the triple store across N shards by subject, 1-256: subject-bound lookups then open one shard")
	fs.IntVar(&c.objShards, "object-shards", 0, "additionally replicate the store across N object-hash shards, 0-256: placement routing then serves object-bound patterns from one shard instead of fanning out (0 = subject partitioning only)")
	fs.StringVar(&c.updates, "updates", "", "stream triple updates through the maintained views: one triple per line inserts, a '- ' prefix deletes")
	fs.IntVar(&c.asyncQueue, "async-maintain", 0, "maintain views asynchronously behind a change queue of this depth (0 = synchronous maintenance)")
	fs.Func("stale-reads", "answering policy over asynchronously maintained views: serve-stale|wait-fresh (default serve-stale)", func(s string) error {
		for _, p := range []rdfviews.StaleReadPolicy{rdfviews.ServeStale, rdfviews.WaitFresh} {
			if s == p.String() {
				c.staleReads = p
				return nil
			}
		}
		return errors.New("want serve-stale|wait-fresh")
	})
	fs.BoolVar(&c.cacheStats, "cache-stats", false, "answer the workload through the serving-tier plan cache and print the hit/miss/eviction/compile-time ledger")
	fs.StringVar(&c.serveAddr, "serve", "", "serve SPARQL over HTTP on this address (e.g. :8080): GET/POST /sparql streams results over the maintained views, /stats reports the ledgers")
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return nil, 0
	case err != nil:
		return nil, 2
	}
	if c.dataPath == "" || c.queryPath == "" {
		fs.Usage()
		return nil, 2
	}
	// Counts outside these ranges would otherwise be clamped or read as a
	// different setting further down, silently.
	for _, r := range []struct {
		name      string
		v, lo, hi int
	}{
		{"shards", c.shards, 1, store.MaxShards},
		{"object-shards", c.objShards, 0, store.MaxShards},
		{"async-maintain", c.asyncQueue, 0, math.MaxInt},
		{"maxrows", c.maxRows, 0, math.MaxInt},
	} {
		if r.v < r.lo || r.v > r.hi {
			want := fmt.Sprintf("want %d-%d", r.lo, r.hi)
			if r.hi == math.MaxInt {
				want = fmt.Sprintf("want >= %d", r.lo)
			}
			fmt.Fprintf(stderr, "invalid value %d for flag -%s: %s\n", r.v, r.name, want)
			fs.Usage()
			return nil, 2
		}
	}
	return c, 0
}

func main() {
	c, code := parseFlags(os.Args[1:], os.Stderr)
	if c == nil {
		os.Exit(code)
	}

	db := rdfviews.NewDatabaseDual(c.shards, c.objShards)
	if err := loadFile(db, c.dataPath, false); err != nil {
		fatal(err)
	}
	if c.schemaPath != "" {
		if err := loadFile(db, c.schemaPath, true); err != nil {
			fatal(err)
		}
	}
	queryText, err := os.ReadFile(c.queryPath)
	if err != nil {
		fatal(err)
	}
	w, err := db.ParseWorkload(string(queryText))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("database: %d triples, %d schema statements; workload: %d queries\n",
		db.NumTriples(), db.SchemaSize(), w.Len())

	rec, err := db.Recommend(w, rdfviews.Options{
		Strategy:  rdfviews.Strategy(c.strategy),
		Reasoning: rdfviews.Reasoning(c.reasoning),
		Timeout:   c.timeout,
	})
	if err != nil {
		fatal(err)
	}
	res := rec.Result()
	fmt.Printf("\nsearch: %d states created (%d duplicates, %d discarded) in %v\n",
		res.Counters.Created, res.Counters.Duplicates, res.Counters.Discarded,
		res.Duration.Round(time.Millisecond))
	fmt.Printf("cost: %.4g -> %.4g  (relative cost reduction %.3f)\n",
		rec.InitialCost().Total, rec.Cost().Total, rec.RCR())

	fmt.Printf("\nrecommended views (%d):\n", rec.NumViews())
	for _, v := range rec.ViewDefinitions() {
		fmt.Println("  " + v)
	}
	fmt.Println("\nrewritings:")
	for i, r := range rec.Rewritings() {
		fmt.Printf("  q%d = %s\n", i+1, r)
	}

	if c.explainPhy {
		fmt.Println()
		fmt.Print(rec.ExplainPhysical())
	}

	// The views -answer runs over: maintained on the live path, where
	// updates stream through the maintainer and answers read the maintained
	// (possibly lagging) extents; materialized once otherwise.
	var views *rdfviews.Views
	switch {
	case c.updates != "" || c.asyncQueue > 0 || c.cacheStats || c.serveAddr != "":
		views, err = rec.MaintainWithOptions(rdfviews.MaintainOptions{
			QueueDepth: c.asyncQueue,
			StaleReads: c.staleReads,
		})
		if err != nil {
			fatal(err)
		}
		mode := "synchronously"
		if views.Async() {
			mode = fmt.Sprintf("asynchronously (queue depth %d, %s reads)", c.asyncQueue, c.staleReads)
		}
		fmt.Printf("\nmaintaining %d views %s: %d rows\n", rec.NumViews(), mode, views.NumRows())
		if c.updates != "" {
			if err := streamUpdates(views, c.updates); err != nil {
				fatal(err)
			}
		}
	case c.answer:
		if views, err = rec.Materialize(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nmaterialized %d rows (%d bytes)\n", views.NumRows(), views.SizeBytes())
	default:
		return
	}
	if c.answer {
		if c.cacheStats {
			texts := workloadLines(string(queryText))
			printAnswers(len(texts), c.maxRows, func(i int) ([][]string, error) { return views.AnswerQuery(texts[i]) })
		} else {
			printAnswers(w.Len(), c.maxRows, views.Answer)
		}
	}
	if c.cacheStats {
		fmt.Printf("\nplan cache: %s\n", views.CacheStats())
		fmt.Printf("shard pruning: %s\n", views.PruneStats())
	}
	if c.serveAddr != "" {
		if err := serveHTTP(views, c.serveAddr); err != nil {
			fatal(err)
		}
	}
	if err := views.Close(); err != nil {
		fatal(err)
	}
}

// serveHTTP runs the SPARQL-over-HTTP front end over the maintained views
// until SIGINT/SIGTERM, then drains in-flight requests and returns.
func serveHTTP(lv *rdfviews.Views, addr string) error {
	srv, err := server.New(server.Config{
		Backend: server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
			s, err := lv.AnswerQueryStream(ctx, q)
			if err != nil {
				return nil, err
			}
			return s, nil
		}),
		StatsExtra: func() map[string]any {
			return map[string]any{
				"plan_cache":    lv.CacheStats(),
				"shard_pruning": lv.PruneStats(),
			}
		},
	})
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(addr) }()
	fmt.Printf("\nserving SPARQL on %s (endpoints: /sparql, /stats); Ctrl-C to stop\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("\n%s: draining in-flight requests\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		fmt.Printf("served: %s\n", srv.Counters().Snapshot())
		return nil
	}
}

// streamUpdates pushes the file's updates through the live views and prints
// the freshness lifecycle: stream time, lag at end-of-stream, flush time.
func streamUpdates(lv *rdfviews.Views, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ins, del := 0, 0
	start := time.Now()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// A leading +/- is an op marker, never part of a triple: reject a
		// malformed marker instead of inserting a garbage subject.
		if strings.HasPrefix(line, "-") {
			rest, ok := strings.CutPrefix(line, "- ")
			if !ok {
				return fmt.Errorf("malformed delete line %q (want '- <triple>')", line)
			}
			if _, err := lv.Delete(rest); err != nil {
				return err
			}
			del++
			continue
		}
		if strings.HasPrefix(line, "+") {
			rest, ok := strings.CutPrefix(line, "+ ")
			if !ok {
				return fmt.Errorf("malformed insert line %q (want '+ <triple>')", line)
			}
			line = rest
		}
		if _, err := lv.Insert(line); err != nil {
			return err
		}
		ins++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	streamed := time.Since(start)
	deltas, epochs := lv.Lag()
	fmt.Printf("streamed %d inserts, %d deletes in %v (lag at end of stream: %d deltas, %d epochs behind)\n",
		ins, del, streamed.Round(time.Microsecond), deltas, epochs)
	start = time.Now()
	if err := lv.Flush(); err != nil {
		return err
	}
	fmt.Printf("flushed in %v; views hold %d rows\n", time.Since(start).Round(time.Microsecond), lv.NumRows())
	return nil
}

// printAnswers prints the answers of queries 0..n-1, at most maxRows rows
// each, through the given answering surface: materialized or live views, or
// the serving tier's plan cache by query text.
func printAnswers(n, maxRows int, answer func(int) ([][]string, error)) {
	for i := 0; i < n; i++ {
		rows, err := answer(i)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nq%d: %d answers\n", i+1, len(rows))
		for j, row := range rows {
			if j >= maxRows {
				fmt.Printf("  ... (%d more)\n", len(rows)-j)
				break
			}
			fmt.Printf("  %v\n", row)
		}
	}
}

// workloadLines splits a workload file into query texts, one per line,
// skipping blanks and # comments (the same convention ParseWorkload uses).
func workloadLines(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out
}

func loadFile(db *rdfviews.Database, path string, schema bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if schema {
		_, err = db.LoadSchema(f)
	} else {
		_, err = db.LoadGraph(f)
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdfviews:", err)
	os.Exit(1)
}
