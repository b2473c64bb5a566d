package main

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"
)

// The host reference. The machines this benchmark runs on are a few vCPUs of
// a shared host whose memory system moves with the neighbours: identical code
// on identical inputs ran 166 µs and 262 µs per request ten minutes apart,
// drifting over tens of seconds to minutes — longer than a run, so no amount
// of averaging inside a run removes it, and wider than any bound a metric
// could usefully carry. What does remove about half of it is measuring the
// host beside the program: a fixed reference kernel that shares no code with
// the system under test runs every few tens of milliseconds in the
// generator's own goroutine, and every operation time the benchmark reports
// is divided by the host factor of the measured phase it belongs to —
// reference time measured / reference time nominal. The reported microseconds
// are therefore microseconds on a host running the reference at its nominal
// speed, not wall-clock microseconds of this run; the report prints the
// factors so the raw values can be recovered.
//
// The kernel is a dependent-load chase through a 128 KB cycle: larger than
// L1, so every hop pays the L2 latency — or, for the lines the program under
// test evicted since the last reading, the L3 latency — that the neighbours
// contend for. An ALU-only loop beside it stayed within 5 % while the chase
// moved 25 % and the program 40 %: the correction is deliberately partial. A
// larger cycle swings further but also with where its pages land, and a
// loopback HTTP round trip tracks a served request well but reads anywhere
// between 90 and 800 µs once the process is otherwise idle, as it is after a
// selection. README.md has the measurements.
const (
	refCycle   = 32 << 10 // int32s: 128 KB
	refHops    = 100_000
	refNominal = 500 * time.Microsecond // refHops hops on the authoring host on a quiet minute
	// refEvery is the cadence of readings during a served phase: one reading
	// costs about half a millisecond, so the generator spends about 2 % of
	// the phase on it (time that leaves the throughput's denominator).
	refEvery = 25 * time.Millisecond
)

// refSample is one reading of the reference: when (offset from the start of
// the phase it belongs to) and how long the chase took.
type refSample struct {
	at, took time.Duration
}

// hostRef owns the chase cycle.
type hostRef struct {
	next []int32
	pos  int32
}

func newHostRef() *hostRef {
	order := rand.New(rand.NewSource(1)).Perm(refCycle)
	next := make([]int32, refCycle)
	for i, at := range order {
		next[at] = int32(order[(i+1)%refCycle])
	}
	return &hostRef{next: next}
}

// take appends n consecutive readings, stamped at, to dst.
func (h *hostRef) take(dst []refSample, n int, at time.Duration) []refSample {
	for ; n > 0; n-- {
		t0 := time.Now()
		p := h.pos
		for i := 0; i < refHops; i++ {
			p = h.next[p]
		}
		h.pos = p
		dst = append(dst, refSample{at: at, took: time.Since(t0)})
	}
	return dst
}

// hostFactor is how slow the host ran while the readings were taken: 1 at
// nominal speed, 1.3 when the median reading took 30 % longer. No reading, no
// correction.
func hostFactor(ref []refSample) float64 {
	if len(ref) == 0 {
		return 1
	}
	took := make([]float64, len(ref))
	for i, s := range ref {
		took[i] = float64(s.took)
	}
	return median(took) / float64(refNominal)
}

// cpuClock is the kernel's account of the vCPUs' time so far, in ticks: busy
// is all time some task wanted a vCPU, stolen the part of it the hypervisor
// ran somebody else instead. The memory system is not the only thing the
// neighbours move: for three minutes of one sweep, while the stolen counter
// advanced by minutes, medians doubled and p95s quadrupled in four
// consecutive runs, and dividing by the chase did not bring them back. The
// kernel counts that time, so it is taken out directly.
type cpuClock struct{ stolen, busy float64 }

// readCPUClock reads the first line of /proc/stat; where there is none (not
// Linux) the clock stands still and nothing is ever taken out.
func readCPUClock() cpuClock {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuClock{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuClock{}
	}
	var c cpuClock
	for i, field := range f[1:9] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return cpuClock{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			c.stolen = v
			c.busy += v
		default:
			c.busy += v
		}
	}
	return c
}

// stolenSince is the share of the busy time since then that was stolen,
// capped where the correction would exceed tenfold.
func (then cpuClock) stolenSince() float64 {
	now := readCPUClock()
	if now.busy <= then.busy {
		return 0
	}
	return min(0.9, (now.stolen-then.stolen)/(now.busy-then.busy))
}

// normalize turns the segments of one measured phase from wall-clock into
// reference-host quantiles and rates, dividing times by f, the phase's host
// factor (a few seconds: short against the host's drift, long enough for a
// hundred readings, where a single segment's handful would add their own
// scatter); the time the generator spent on readings leaves each segment's
// rate denominator.
func normalize(segs []segStat, f float64, ref []refSample, segLen time.Duration) {
	spent := make([]time.Duration, len(segs))
	for _, s := range ref {
		if i := int(s.at / segLen); s.at >= 0 && i < len(segs) {
			spent[i] += s.took
		}
	}
	for i := range segs {
		st := &segs[i]
		st.p50 = time.Duration(float64(st.p50) / f)
		st.p95 = time.Duration(float64(st.p95) / f)
		if busy := segLen - spent[i]; busy > 0 {
			st.perSec = float64(st.n) / busy.Seconds() * f
		}
	}
}
