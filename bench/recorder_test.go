package main

import (
	"testing"
	"time"
)

func TestQuantileIsExactNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Microsecond
	}
	for _, c := range []struct {
		q      float64
		want   time.Duration
		beyond int
	}{
		{0.50, 50 * time.Microsecond, 50},
		{0.95, 95 * time.Microsecond, 5},
		{0.99, 99 * time.Microsecond, 1},
		{1.00, 100 * time.Microsecond, 0},
	} {
		got, beyond := quantile(sorted, c.q)
		if got != c.want || beyond != c.beyond {
			t.Errorf("quantile(%.2f) = %v with %d beyond, want %v with %d", c.q, got, beyond, c.want, c.beyond)
		}
	}
	if v, b := quantile(nil, 0.5); v != 0 || b != 0 {
		t.Errorf("quantile of nothing = %v, %d", v, b)
	}
}

// A log2 histogram would report 262 or 524 µs for every value below; the
// recorder must tell 300 from 330.
func TestSummaryResolvesTenPercent(t *testing.T) {
	mk := func(base time.Duration) []*workerLog {
		a, b := newWorkerLog(0), newWorkerLog(0)
		for seg := 0; seg < 4; seg++ {
			for i := 0; i < 400; i++ {
				at := time.Duration(seg)*time.Second + time.Duration(i)*time.Millisecond
				w := a
				if i%2 == 1 {
					w = b
				}
				w.observe(at, base+time.Duration(i)*time.Nanosecond)
			}
		}
		return []*workerLog{a, b}
	}
	slow, fast := summarize(mk(330*time.Microsecond), time.Second, 4), summarize(mk(300*time.Microsecond), time.Second, 4)
	if ratio := float64(slow.P50) / float64(fast.P50); ratio < 1.09 || ratio > 1.11 {
		t.Errorf("p50 ratio %.3f, want 1.10", ratio)
	}
	if fast.Samples != 1600 || fast.PerSec != 400 {
		t.Errorf("samples %d rate %.1f, want 1600 and 400/s", fast.Samples, fast.PerSec)
	}
	if fast.MinBeyond95 != 20 || fast.MinBeyond50 != 200 {
		t.Errorf("beyond p50 %d p95 %d, want 200 and 20", fast.MinBeyond50, fast.MinBeyond95)
	}
}

func TestSummaryIsMedianOverSegments(t *testing.T) {
	log := newWorkerLog(0)
	// Three quiet segments and one stalled one: the stall must not move p50.
	for seg, d := range []time.Duration{100, 100, 9000, 100} {
		for i := 0; i < 50; i++ {
			log.observe(time.Duration(seg)*time.Second+time.Duration(i)*time.Millisecond, d*time.Microsecond)
		}
	}
	// Past the last whole segment: dropped.
	log.observe(4*time.Second+time.Millisecond, time.Hour)
	sum := summarize([]*workerLog{log}, time.Second, 4)
	if sum.P50 != 100*time.Microsecond || sum.P95 != 100*time.Microsecond {
		t.Errorf("p50 %v p95 %v, want 100µs", sum.P50, sum.P95)
	}
	if sum.Samples != 200 {
		t.Errorf("samples %d, want 200", sum.Samples)
	}
	if sum.MinBeyond95 >= beyondRule {
		t.Errorf("50-sample segments leave %d beyond p95: must be flagged unresolved", sum.MinBeyond95)
	}
}

func TestOpenLoopChargesStallsToDueTime(t *testing.T) {
	start := time.Now()
	pace := newOpenLoop(start, 1000, 8)
	if due := pace.wait(0); due != 0 {
		t.Fatalf("op 0 due at %v", due)
	}
	time.Sleep(5 * time.Millisecond) // the system under test stalls
	// Ops 1..4 were due during the stall: they are issued at once, late, and
	// their due times do not move.
	for i := 1; i <= 4; i++ {
		before := time.Now()
		if due := pace.wait(i); due != time.Duration(i)*time.Millisecond {
			t.Errorf("op %d due at %v", i, due)
		}
		if waited := time.Since(before); waited > 2*time.Millisecond {
			t.Errorf("op %d waited %v although it was overdue", i, waited)
		}
	}
	if pace.late[1] < 3*time.Millisecond {
		t.Errorf("op 1 recorded %v late, want about 4ms", pace.late[1])
	}
	// An op in the future is waited for.
	due := pace.wait(30)
	if since := time.Since(start); since < due {
		t.Errorf("op 30 issued at %v, before its due time %v", since, due)
	}
}

func TestNormalizeDividesTimesByTheHostFactor(t *testing.T) {
	log := newWorkerLog(0)
	for i := 0; i < 100; i++ {
		log.observe(time.Duration(i)*10*time.Millisecond, 300*time.Microsecond)
	}
	segs := segmentsOf([]*workerLog{log}, time.Second, 1)
	// Two readings at twice the nominal: the host ran at half speed, and the
	// generator spent 2·2·nominal of the segment on them.
	ref := []refSample{{at: 0, took: 2 * refNominal}, {at: 500 * time.Millisecond, took: 2 * refNominal}}
	f := hostFactor(ref)
	if f != 2 || hostFactor(nil) != 1 {
		t.Fatalf("host factor %v (want 2), of no reading %v (want 1)", f, hostFactor(nil))
	}
	normalize(segs, f, ref, time.Second)
	if segs[0].p50 != 150*time.Microsecond || segs[0].p95 != 150*time.Microsecond {
		t.Errorf("p50 %v p95 %v, want 150µs", segs[0].p50, segs[0].p95)
	}
	want := 100 / (time.Second - 4*refNominal).Seconds() * 2
	if got := segs[0].perSec; got < want*0.999 || got > want*1.001 {
		t.Errorf("rate %.2f/s, want %.2f/s", got, want)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{10, 10, 10}); s != 0 {
		t.Errorf("spread of a constant = %v", s)
	}
}
