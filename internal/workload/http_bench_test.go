package workload_test

// HTTP serving-tier benchmarks: the per-request cost of the network path (HTTP
// parse + admission + stream encode) over the warm plan cache, and the load
// generator's latency quantiles under closed- and open-loop traffic. The
// library-surface costs these stack on are in serve_bench_test.go.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"rdfviews"
	"rdfviews/internal/server"
	"rdfviews/internal/workload"
)

// httpWorld stands up the serving stack end to end: the reformulation-heavy
// deployment of buildServeWorld behind an internal/server instance on a real
// loopback listener.
func httpWorld(b *testing.B, cfg server.Config) *httptest.Server {
	b.Helper()
	lv := buildServeWorld(b, rdfviews.MaintainOptions{})
	// Warm the plan cache: HTTP benchmarks measure the network path, not
	// first-call compilation.
	for _, q := range serveQueryTexts {
		if _, err := lv.AnswerQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	cfg.Backend = server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
		s, err := lv.AnswerQueryStream(ctx, q)
		if err != nil {
			return nil, err
		}
		return s, nil
	})
	srv, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(hs.Close)
	return hs
}

// BenchmarkServeHTTPWarm measures one sequential HTTP request over the warm
// cache: the full network round trip against BenchmarkServeWarm's in-process
// call — the delta is what the wire costs.
func BenchmarkServeHTTPWarm(b *testing.B) {
	hs := httpWorld(b, server.Config{})
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := serveQueryTexts[i%len(serveQueryTexts)]
		resp, err := client.Get(hs.URL + "/sparql?query=" + url.QueryEscape(q))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServeHTTPClosedLoop runs the load generator closed-loop at the
// admission capacity and reports admitted latency quantiles and throughput.
func BenchmarkServeHTTPClosedLoop(b *testing.B) {
	benchLoad(b, 1)
}

// BenchmarkServeHTTPOverload2x runs the closed loop at twice the admission
// capacity: the acceptance regime — admitted p50 must stay near the
// uncontended p50 while the excess sheds.
func BenchmarkServeHTTPOverload2x(b *testing.B) {
	benchLoad(b, 2)
}

func benchLoad(b *testing.B, mult int) {
	const slots = 4
	hs := httpWorld(b, server.Config{
		MaxInFlight:  slots,
		MaxQueue:     1,
		QueueTimeout: time.Millisecond,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := workload.RunLoad(workload.LoadConfig{
			URL:         hs.URL,
			Queries:     serveQueryTexts,
			Concurrency: mult * slots,
			Duration:    time.Second,
		})
		if res.OK == 0 || res.Errors > 0 {
			b.Fatalf("load run: %+v", res)
		}
		b.ReportMetric(res.Throughput(), "req/s")
		b.ReportMetric(float64(res.Latency.Quantile(0.5).Microseconds()), "p50-µs")
		b.ReportMetric(float64(res.Latency.Quantile(0.95).Microseconds()), "p95-µs")
		b.ReportMetric(float64(res.Shed)/float64(res.Sent)*100, "shed-%")
	}
}
