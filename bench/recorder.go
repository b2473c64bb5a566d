package main

import (
	"math"
	"sort"
	"time"
)

// The exact latency recorder. internal/workload.LatencyHist buckets by powers
// of two, so its quantiles are bucket upper bounds and cannot resolve a ±10 %
// change; the benchmark instead keeps every duration. Each worker appends to
// its own preallocated slice (no sharing on the hot path); at the end the
// samples are cut into segments by their start offset, each segment is
// sorted, and a run reports the median over its segments of the segment's
// exact quantile — one slow segment (a GC cycle, a scheduler hiccup, a noisy
// neighbour on the host) moves the report by at most one rank.

// sample is one operation: when it started — or, for an open-loop generator,
// when it was due — as an offset from the phase start, and how long it took
// from that instant to completion.
type sample struct {
	at, dur time.Duration
}

// workerLog is one worker's private record of a measured phase.
type workerLog struct {
	samples []sample
	failed  int
}

func newWorkerLog(capacity int) *workerLog {
	return &workerLog{samples: make([]sample, 0, capacity)}
}

func (w *workerLog) observe(at, dur time.Duration) {
	w.samples = append(w.samples, sample{at, dur})
}

// beyondRule is the number of samples a quantile must leave above it, per
// segment, to count as resolved (choosing-metrics §1).
const beyondRule = 10

// quantile is the exact nearest-rank quantile of sorted durations, plus how
// many samples lie beyond it.
func quantile(sorted []time.Duration, q float64) (v time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// segStat is one segment of a measured phase: its exact quantiles, how many
// samples lie beyond each, and its completion rate.
type segStat struct {
	p50, p95           time.Duration
	beyond50, beyond95 int
	n                  int
	perSec             float64
}

// segmentsOf cuts the workers' samples into nseg segments of segLen by start
// offset (samples past the last segment are dropped: the phase's drain tail).
func segmentsOf(logs []*workerLog, segLen time.Duration, nseg int) []segStat {
	durs := make([][]time.Duration, nseg)
	for _, l := range logs {
		for _, s := range l.samples {
			if i := int(s.at / segLen); s.at >= 0 && i < nseg {
				durs[i] = append(durs[i], s.dur)
			}
		}
	}
	out := make([]segStat, nseg)
	for i, seg := range durs {
		sort.Slice(seg, func(a, b int) bool { return seg[a] < seg[b] })
		st := segStat{n: len(seg), perSec: float64(len(seg)) / segLen.Seconds()}
		st.p50, st.beyond50 = quantile(seg, 0.50)
		st.p95, st.beyond95 = quantile(seg, 0.95)
		out[i] = st
	}
	return out
}

// summary is the segment-median aggregate of a measured phase.
type summary struct {
	P50, P95 time.Duration // median over segments of the segment quantile
	PerSec   float64       // median over segments of completions per second
	Samples  int           // total samples in whole segments
	// MinBeyond50/95 are the fewest samples any segment left beyond the
	// quantile; below beyondRule the quantile is reported but unresolved.
	MinBeyond50, MinBeyond95 int
	// SegP50, SegP95 are the per-segment quantiles the medians were taken of.
	SegP50, SegP95 []time.Duration
}

// summarizeSegs aggregates segments (possibly of several phases of one run).
// Empty segments count for the rate and the beyond rule, not for quantiles.
func summarizeSegs(segs []segStat) summary {
	out := summary{MinBeyond50: math.MaxInt, MinBeyond95: math.MaxInt}
	var p50s, p95s, rates []float64
	for _, st := range segs {
		out.Samples += st.n
		rates = append(rates, st.perSec)
		out.MinBeyond50 = min(out.MinBeyond50, st.beyond50)
		out.MinBeyond95 = min(out.MinBeyond95, st.beyond95)
		if st.n == 0 {
			continue
		}
		p50s = append(p50s, float64(st.p50))
		p95s = append(p95s, float64(st.p95))
		out.SegP50 = append(out.SegP50, st.p50)
		out.SegP95 = append(out.SegP95, st.p95)
	}
	out.P50 = time.Duration(median(p50s))
	out.P95 = time.Duration(median(p95s))
	out.PerSec = median(rates)
	return out
}

func summarize(logs []*workerLog, segLen time.Duration, nseg int) summary {
	return summarizeSegs(segmentsOf(logs, segLen, nseg))
}

// median of a non-empty slice (mean of the two middle values when even);
// 0 for an empty one. It sorts vs in place.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// openLoop paces an open-loop generator: operation i is due at i·interval
// after start regardless of how long earlier operations took, so a stall in
// the system under test shows up as latency on every operation that was due
// during it (no coordinated omission).
type openLoop struct {
	start    time.Time
	interval time.Duration
	late     []time.Duration // how far behind its due time each op was issued
}

func newOpenLoop(start time.Time, perSec int, capacity int) *openLoop {
	return &openLoop{
		start:    start,
		interval: time.Second / time.Duration(perSec),
		late:     make([]time.Duration, 0, capacity),
	}
}

// wait blocks until operation i is due and returns its due offset; when the
// generator is already behind it returns at once and records the lateness.
func (o *openLoop) wait(i int) (due time.Duration) {
	due = time.Duration(i) * o.interval
	if d := time.Until(o.start.Add(due)); d > 0 {
		time.Sleep(d)
	}
	late := time.Since(o.start) - due
	if late < 0 {
		late = 0
	}
	o.late = append(o.late, late)
	return due
}
