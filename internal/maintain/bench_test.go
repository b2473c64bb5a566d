package maintain

// Benchmarks comparing synchronous and asynchronous maintenance. The
// "latency" benchmarks time the writer side of Insert only — what a client
// waits for per update. Synchronously that includes every delta join; the
// async maintainer returns after the store update and enqueue, so at low
// queue occupancy the writer pays microseconds, and at saturation
// (backpressure) it converges to the refresher's amortized per-delta batch
// cost. The "drained" variants include a final Flush, measuring steady-state
// end-to-end throughput.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// benchWorld builds a store with a few thousand seed triples and a
// maintainer over one join view and one scan view.
func benchWorld(b *testing.B, cfg Config) (*store.Store, *Maintainer) {
	b.Helper()
	st := store.New()
	batch := make([]store.Triple, 0, 3000)
	for i := 0; i < 1000; i++ {
		batch = append(batch,
			st.Encode(rdf.T(fmt.Sprintf("p%d", i%200), "isParentOf", fmt.Sprintf("c%d", i))),
			st.Encode(rdf.T(fmt.Sprintf("c%d", i), "hasPainted", fmt.Sprintf("art%d", i))),
			st.Encode(rdf.T(fmt.Sprintf("p%d", i%200), "livesIn", fmt.Sprintf("city%d", i%50))))
	}
	st.AddBatch(batch)
	p := cq.NewParser(st.Dict())
	views := map[algebra.ViewID]*cq.Query{}
	views[1] = p.MustParseQuery("q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)")
	p.ResetNames()
	views[2] = p.MustParseQuery("q(A, B) :- t(A, hasPainted, B)")
	m, err := NewWithConfig(st, views, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return st, m
}

// benchWindow is the number of outstanding benchmark triples: each timed
// iteration inserts a fresh triple and deletes the one benchWindow steps
// back, so extents stay bounded (no quadratic copy-on-write growth) and the
// stream exercises both delta insertion and DRed deletion at steady state.
const benchWindow = 1024

// updateStream streams b.N insert+delete window updates through the
// maintainer; drain decides whether the final Flush is inside the timed
// region.
func updateStream(b *testing.B, cfg Config, drain bool) {
	st, m := benchWorld(b, cfg)
	defer m.Close()
	triples := make([]store.Triple, b.N)
	for i := range triples {
		triples[i] = st.Encode(rdf.T(fmt.Sprintf("c%d", i%1000), "hasPainted", fmt.Sprintf("new%d", i)))
	}
	b.ResetTimer()
	for i, tr := range triples {
		if _, err := m.Insert(tr); err != nil {
			b.Fatal(err)
		}
		if i >= benchWindow {
			if _, err := m.Delete(triples[i-benchWindow]); err != nil {
				b.Fatal(err)
			}
		}
	}
	if drain {
		if err := m.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := m.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMaintainSync is the oracle's per-update latency: every Insert
// propagates its delta into both extents before returning.
func BenchmarkMaintainSync(b *testing.B) {
	updateStream(b, Config{}, false)
}

// BenchmarkMaintainAsync is the writer-visible Insert latency behind a
// bounded change queue, at several depths.
func BenchmarkMaintainAsync(b *testing.B) {
	for _, depth := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("queue=%d", depth), func(b *testing.B) {
			updateStream(b, Config{QueueDepth: depth}, false)
		})
	}
}

// BenchmarkMaintainAsyncDrained includes the final Flush in the timed
// region: the steady-state throughput of the queue + refresher pipeline.
func BenchmarkMaintainAsyncDrained(b *testing.B) {
	for _, depth := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("queue=%d", depth), func(b *testing.B) {
			updateStream(b, Config{QueueDepth: depth}, true)
		})
	}
}

// reportPercentiles publishes p50/p95 of the collected per-Insert wall
// times as custom benchmark metrics.
func reportPercentiles(b *testing.B, lats []int64) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p95 := len(lats) * 95 / 100
	if p95 >= len(lats) {
		p95 = len(lats) - 1
	}
	b.ReportMetric(float64(lats[len(lats)/2]), "p50-ns/insert")
	b.ReportMetric(float64(lats[p95]), "p95-ns/insert")
}

// insertLatencyStream measures what a writer waits for per Insert. The
// async variants keep queue occupancy below half the depth by flushing
// outside the timed region — the provisioned regime, where a client pays
// the enqueue cost instead of the delta joins. (The saturated regime is
// what BenchmarkMaintainAsync/Drained measure.)
func insertLatencyStream(b *testing.B, cfg Config) {
	st, m := benchWorld(b, cfg)
	defer m.Close()
	triples := make([]store.Triple, b.N)
	for i := range triples {
		triples[i] = st.Encode(rdf.T(fmt.Sprintf("c%d", i%1000), "hasPainted", fmt.Sprintf("new%d", i)))
	}
	lats := make([]int64, 0, b.N)
	b.ResetTimer()
	for _, tr := range triples {
		if cfg.QueueDepth > 0 && m.Lag() > cfg.QueueDepth/2 {
			b.StopTimer()
			if err := m.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		t0 := time.Now()
		if _, err := m.Insert(tr); err != nil {
			b.Fatal(err)
		}
		lats = append(lats, int64(time.Since(t0)))
	}
	b.StopTimer()
	reportPercentiles(b, lats)
	if err := m.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMaintainSyncInsertLatency: per-Insert writer latency of the
// synchronous oracle (the delta joins are inline).
func BenchmarkMaintainSyncInsertLatency(b *testing.B) {
	insertLatencyStream(b, Config{})
}

// BenchmarkMaintainAsyncInsertLatency: per-Insert writer latency behind a
// provisioned change queue.
func BenchmarkMaintainAsyncInsertLatency(b *testing.B) {
	for _, depth := range []int{512, 4096} {
		b.Run(fmt.Sprintf("queue=%d", depth), func(b *testing.B) {
			insertLatencyStream(b, Config{QueueDepth: depth})
		})
	}
}
