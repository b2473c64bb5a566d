package workload

// Concurrent network load generator for the HTTP serving tier
// (internal/server): drives a SPARQL endpoint with open- or closed-loop
// client traffic and reports shed rates and latency quantiles. The harness
// behind the HTTP benchmarks and the admission-control acceptance test — a
// closed loop at 2x capacity must keep admitted latencies near the
// uncontended baseline because excess demand sheds at the door instead of
// queueing behind execution.

import (
	"context"
	"io"
	"math/bits"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyHist is a lock-free log2-bucketed latency histogram: bucket i holds
// observations with nanosecond durations in [2^(i-1), 2^i). Concurrent
// Observe calls are safe; quantiles are upper bounds (the top of the bucket
// the quantile falls in), which is the right bias for latency reporting.
type LatencyHist struct {
	buckets [64]atomic.Int64
	count   atomic.Int64
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(d time.Duration) {
	n := uint64(d.Nanoseconds())
	h.buckets[bits.Len64(n)].Add(1)
	h.count.Add(1)
}

// Count returns the number of samples observed.
func (h *LatencyHist) Count() int64 { return h.count.Load() }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of the
// observed latencies, or 0 with no samples.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return time.Duration(1<<63 - 1)
}

// LoadConfig drives one load run against a serving endpoint.
type LoadConfig struct {
	// URL is the endpoint base, e.g. "http://127.0.0.1:8080" — the generator
	// appends /sparql itself.
	URL string
	// Queries is the query mix; workers round-robin through it.
	Queries []string
	// Concurrency is the number of closed-loop workers (or the client pool
	// size for open loop). Default 8.
	Concurrency int
	// Duration is how long to generate load. Default 2s.
	Duration time.Duration
	// Rate, when positive, switches to open loop: requests are issued at this
	// fixed rate (per second) regardless of completions. Zero means closed
	// loop — each worker issues its next request when the previous returns.
	Rate float64
	// Timeout is the per-request client timeout. Default 10s.
	Timeout time.Duration
}

// LoadResult is one load run's ledger.
type LoadResult struct {
	Sent    int64         // requests issued
	OK      int64         // 200 responses (drained fully)
	Shed    int64         // 429/503 responses (admission control)
	Errors  int64         // transport errors and other statuses
	Elapsed time.Duration // wall-clock of the run
	Latency LatencyHist   // latency of OK responses only
}

// Throughput returns completed (OK) requests per second.
func (r *LoadResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / r.Elapsed.Seconds()
}

// RunLoad generates load per cfg and blocks until the run completes. Shed
// responses (429/503) count separately from errors — under overload they are
// the admission control working as designed, not failures.
func RunLoad(cfg LoadConfig) *LoadResult {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	client := &http.Client{Timeout: cfg.Timeout}
	res := &LoadResult{}
	var qi atomic.Int64
	one := func() {
		i := qi.Add(1) - 1
		q := cfg.Queries[int(i)%len(cfg.Queries)]
		start := time.Now()
		resp, err := client.Get(cfg.URL + "/sparql?query=" + url.QueryEscape(q))
		if err != nil {
			atomic.AddInt64(&res.Errors, 1)
			return
		}
		_, derr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case derr != nil:
			atomic.AddInt64(&res.Errors, 1)
		case resp.StatusCode == http.StatusOK:
			atomic.AddInt64(&res.OK, 1)
			res.Latency.Observe(time.Since(start))
		case resp.StatusCode == http.StatusTooManyRequests,
			resp.StatusCode == http.StatusServiceUnavailable:
			atomic.AddInt64(&res.Shed, 1)
		default:
			atomic.AddInt64(&res.Errors, 1)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		// Open loop: a ticker dispatches at the configured rate; completions
		// do not gate dispatch (the defining property of open-loop load).
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		var sent atomic.Int64
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
	open:
		for {
			select {
			case <-ctx.Done():
				break open
			case <-ticker.C:
				sent.Add(1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					one()
				}()
			}
		}
		wg.Wait()
		res.Sent = sent.Load()
	} else {
		// Closed loop: each worker's next request waits for its previous one.
		sent := make([]int64, cfg.Concurrency)
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for ctx.Err() == nil {
					one()
					sent[w]++
				}
			}(w)
		}
		wg.Wait()
		res.Sent = 0
		for _, n := range sent {
			res.Sent += n
		}
	}
	res.Elapsed = time.Since(start)
	return res
}
