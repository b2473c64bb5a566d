package stats

import (
	"fmt"
	"sync/atomic"
	"time"
)

// CacheCounters is the serving tier's plan-cache ledger: every answering path
// that consults the cache records hits, misses, evictions, invalidation
// sweeps, and the compile time paid versus amortized away. All fields are
// atomics — the cache updates them from concurrent answerers without locks —
// and the ledger doubles as the per-query benefit signal the adaptive view
// selection phase (ROADMAP) will mine.
type CacheCounters struct {
	Hits          atomic.Int64 // lookups answered by a cached artifact
	Misses        atomic.Int64 // lookups that compiled (or waited on a compile)
	Evictions     atomic.Int64 // entries dropped by LRU capacity pressure
	Invalidations atomic.Int64 // generation bumps discarding all entries
	CompileNanos  atomic.Int64 // total time spent compiling artifacts
	SavedNanos    atomic.Int64 // compile time amortized away by hits
}

// CacheSnapshot is a point-in-time copy of CacheCounters for reporting.
type CacheSnapshot struct {
	Hits             int64
	Misses           int64
	Evictions        int64
	Invalidations    int64
	CompileTime      time.Duration
	CompileTimeSaved time.Duration
}

// Snapshot reads the counters atomically (each field individually — the
// snapshot is consistent enough for reporting, not a linearizable cut).
func (c *CacheCounters) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:             c.Hits.Load(),
		Misses:           c.Misses.Load(),
		Evictions:        c.Evictions.Load(),
		Invalidations:    c.Invalidations.Load(),
		CompileTime:      time.Duration(c.CompileNanos.Load()),
		CompileTimeSaved: time.Duration(c.SavedNanos.Load()),
	}
}

// HitRate is hits over total lookups, 0 when the cache was never consulted.
func (s CacheSnapshot) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

func (s CacheSnapshot) String() string {
	return fmt.Sprintf("hits=%d misses=%d hit_rate=%.1f%% evictions=%d invalidations=%d compile=%s saved=%s",
		s.Hits, s.Misses, 100*s.HitRate(), s.Evictions, s.Invalidations,
		s.CompileTime.Round(time.Microsecond), s.CompileTimeSaved.Round(time.Microsecond))
}

// ServeCounters is the HTTP front end's request ledger: admission decisions,
// sheds, cancellations and streamed volume. All fields are atomics — handler
// goroutines update them without locks — and InFlight is a gauge, not a
// counter.
type ServeCounters struct {
	Requests atomic.Int64 // requests received on the query endpoint
	Admitted atomic.Int64 // requests that acquired an execution slot
	Queued   atomic.Int64 // admitted-path requests that waited in the queue
	ShedFull atomic.Int64 // rejected: queue at capacity (HTTP 503)
	ShedWait atomic.Int64 // rejected: queue wait exceeded its timeout (HTTP 429)
	BadQuery atomic.Int64 // rejected: parse/validation failure (HTTP 400)
	Canceled atomic.Int64 // executions cut short by disconnect or deadline
	Panics   atomic.Int64 // requests whose handler panicked (HTTP 500 or an error member)
	Rows     atomic.Int64 // result rows streamed to clients
	Bytes    atomic.Int64 // response body bytes written
	InFlight atomic.Int64 // currently executing requests (gauge)
}

// ServeSnapshot is a point-in-time copy of ServeCounters for reporting; it
// marshals directly as the /stats JSON payload.
type ServeSnapshot struct {
	Requests int64 `json:"requests"`
	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	ShedFull int64 `json:"shed_queue_full"`
	ShedWait int64 `json:"shed_queue_timeout"`
	BadQuery int64 `json:"bad_query"`
	Canceled int64 `json:"canceled"`
	Panics   int64 `json:"panics"`
	Rows     int64 `json:"rows_streamed"`
	Bytes    int64 `json:"bytes_written"`
	InFlight int64 `json:"in_flight"`
}

// Snapshot reads the counters atomically (each field individually).
func (c *ServeCounters) Snapshot() ServeSnapshot {
	return ServeSnapshot{
		Requests: c.Requests.Load(),
		Admitted: c.Admitted.Load(),
		Queued:   c.Queued.Load(),
		ShedFull: c.ShedFull.Load(),
		ShedWait: c.ShedWait.Load(),
		BadQuery: c.BadQuery.Load(),
		Canceled: c.Canceled.Load(),
		Panics:   c.Panics.Load(),
		Rows:     c.Rows.Load(),
		Bytes:    c.Bytes.Load(),
		InFlight: c.InFlight.Load(),
	}
}

func (s ServeSnapshot) String() string {
	return fmt.Sprintf("requests=%d admitted=%d queued=%d shed_full=%d shed_wait=%d bad=%d canceled=%d panics=%d rows=%d bytes=%d in_flight=%d",
		s.Requests, s.Admitted, s.Queued, s.ShedFull, s.ShedWait, s.BadQuery,
		s.Canceled, s.Panics, s.Rows, s.Bytes, s.InFlight)
}
