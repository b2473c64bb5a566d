package workload_test

// Serving-path benchmarks for the plan cache (rdfviews/serve.go). The
// deployment is reformulation-heavy on purpose — a
// subclass chain makes every type query expand to dozens of union members —
// so the numbers isolate what the cache amortizes: reformulate + plan
// compile per call (cold / cache-off) versus bind + execute (warm).
//
// This file lives in workload_test (not package workload) so it can drive
// the public serving surface end to end without an import cycle.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdfviews"
)

// serveClasses is the subclass-chain depth: reformulating a query over the
// root class yields serveClasses union members.
const serveClasses = 48

// buildServeWorld loads a database with a deep class hierarchy and a few
// thousand triples, recommends views for a small workload under
// pre-reformulation, and returns the maintained deployment.
func buildServeWorld(b *testing.B, opts rdfviews.MaintainOptions) *rdfviews.LiveViews {
	b.Helper()
	db := rdfviews.NewDatabase()
	var schema strings.Builder
	for i := 1; i < serveClasses; i++ {
		fmt.Fprintf(&schema, "c%d rdfs:subClassOf c%d .\n", i, i-1)
	}
	if _, err := db.LoadSchemaString(schema.String()); err != nil {
		b.Fatal(err)
	}
	var data strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&data, "e%d rdf:type c%d .\n", i, i%serveClasses)
		fmt.Fprintf(&data, "e%d hasPainted w%d .\n", i, i%97)
		fmt.Fprintf(&data, "e%d livesIn city%d .\n", i, i%31)
		if i%4 == 0 {
			fmt.Fprintf(&data, "e%d isParentOf e%d .\n", i, (i+1)%2000)
		}
	}
	if _, err := db.LoadGraphString(data.String()); err != nil {
		b.Fatal(err)
	}
	w, err := db.ParseWorkload(`q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)`)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := db.Recommend(w, rdfviews.Options{
		Timeout:   5 * time.Second,
		Reasoning: rdfviews.ReasoningPre,
	})
	if err != nil {
		b.Fatal(err)
	}
	lv, err := rec.MaintainWithOptions(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lv.Close() })
	return lv
}

// serveQueryTexts is the ad-hoc point-lookup mix of a serving tier: entity
// scans, parameterized point joins and a multi-atom entity star, rotating
// constants so the lifted skeletons are shared across texts. Results are
// small by design — point serving is exactly the regime where per-call parse
// + plan cost drowns execution, i.e. what the cache amortizes. Reformulated
// type probes are benchmarked separately (BenchmarkServeReformulated*): their
// warm cost is executing every union member, so caching buys less there.
var serveQueryTexts = []string{
	`q(Y) :- t(e7, hasPainted, Y)`,
	`q(Y) :- t(e1293, hasPainted, Y)`,
	`q(C) :- t(e9, livesIn, C)`,
	`q(Z) :- t(e44, isParentOf, Y), t(Y, hasPainted, Z)`,
	`q(Z) :- t(e16, isParentOf, Y), t(Y, hasPainted, Z)`,
	`q(W, C, Z) :- t(e44, hasPainted, W), t(e44, livesIn, C), t(e44, isParentOf, Y), t(Y, hasPainted, Z)`,
}

// serveReformulatedText is a type-membership probe: under pre-reformulation
// the c40 atom expands to 8 union members, so the cold path pays reformulate
// + compile per member and the warm path still executes every member.
const serveReformulatedText = `q(X) :- t(X, rdf:type, c40), t(X, hasPainted, w42)`

// BenchmarkServeCold measures the full per-call serving cost with the plan
// cache disabled: parse + reformulate + plan + execute, every time. This is
// the pre-cache serving path and the benchmark oracle.
func BenchmarkServeCold(b *testing.B) {
	lv := buildServeWorld(b, rdfviews.MaintainOptions{PlanCache: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lv.AnswerQuery(serveQueryTexts[i%len(serveQueryTexts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeWarm measures the hit path: parse + cache hit + bind +
// execute. The compile work of BenchmarkServeCold is amortized away.
func BenchmarkServeWarm(b *testing.B) {
	lv := buildServeWorld(b, rdfviews.MaintainOptions{})
	for _, q := range serveQueryTexts {
		if _, err := lv.AnswerQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lv.AnswerQuery(serveQueryTexts[i%len(serveQueryTexts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePrepared measures the prepared-query path: the parse is also
// amortized, and each iteration rebinds the lifted parameter — the cheapest
// way to serve a point-lookup family.
func BenchmarkServePrepared(b *testing.B) {
	lv := buildServeWorld(b, rdfviews.MaintainOptions{})
	p, err := lv.Prepare(`q(Z) :- t(e42, isParentOf, Y), t(Y, hasPainted, Z)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.AnswerBound(fmt.Sprintf("e%d", (i*4)%2000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeReformulatedCold measures the cache-off cost of a
// reformulation-heavy probe: reformulate + compile + execute all 8 union
// members, every call.
func BenchmarkServeReformulatedCold(b *testing.B) {
	lv := buildServeWorld(b, rdfviews.MaintainOptions{PlanCache: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lv.AnswerQuery(serveReformulatedText); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeReformulatedWarm is the hit path of the same probe: the
// reformulation and per-member compile are amortized, execution of the 8
// members is not — the honest bound on what plan caching buys a union query.
func BenchmarkServeReformulatedWarm(b *testing.B) {
	lv := buildServeWorld(b, rdfviews.MaintainOptions{})
	if _, err := lv.AnswerQuery(serveReformulatedText); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lv.AnswerQuery(serveReformulatedText); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeWarmParallel measures hit-path throughput under concurrent
// load: GOMAXPROCS goroutines hammering the shared cache.
func BenchmarkServeWarmParallel(b *testing.B) {
	lv := buildServeWorld(b, rdfviews.MaintainOptions{})
	for _, q := range serveQueryTexts {
		if _, err := lv.AnswerQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := lv.AnswerQuery(serveQueryTexts[i%len(serveQueryTexts)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkServeMixedChurn measures the serving path under a concurrent
// update stream: readers stay on the hit path (churn is kept under the
// drift threshold by deleting what it inserts) while a writer applies
// inserts and deletes through asynchronous maintenance.
func BenchmarkServeMixedChurn(b *testing.B) {
	lv := buildServeWorld(b, rdfviews.MaintainOptions{QueueDepth: 1024, BatchMax: 64})
	for _, q := range serveQueryTexts {
		if _, err := lv.AnswerQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var updates atomic.Int64
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			line := fmt.Sprintf("churn%d hasPainted cw%d .", i%256, i%13)
			if _, err := lv.Insert(line); err != nil {
				return
			}
			if _, err := lv.Delete(line); err != nil {
				return
			}
			updates.Add(2)
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := lv.AnswerQuery(serveQueryTexts[i%len(serveQueryTexts)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-writerDone
	b.ReportMetric(float64(updates.Load()), "updates")
}
