package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"rdfviews"
)

// churnLag is how many inserts the open-loop writer stays ahead of its own
// deletes: the triple inserted by operation 2k is deleted by operation
// 2(k+churnLag)+1, so extents stay level and the last churnLag inserts are
// still in place at the end — the residue the oracle must see too.
const churnLag = 32

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the contract's result object plus
// what the result file adds (see main.go).
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *runResult) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runWorkload is one untraced run: generate inputs, then sc.setupReps times
// bring a deployment up and measure on it for an equal share of dur, verify
// the last one against the oracle, report the end-to-end metrics. Measuring
// on every bring-up, rather than for one stretch on the last, spreads the
// measurement over more wall time and over several heap layouts, both of
// which a single stretch would bake into the run's numbers. Operation times
// are reported in reference-host units (hostref.go).
func runWorkload(s spec, seed int64, dur time.Duration, sc scale) (*runResult, error) {
	t0 := time.Now()
	in, err := generateInputs(s.name, seed, sc)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "%s: inputs generated in %.2fs\n", s.name, time.Since(t0).Seconds())
	res := &runResult{Metrics: make(map[string]metric)}
	host := newHostRef()

	share := dur / time.Duration(sc.setupReps)
	nseg := segments / sc.setupReps
	var (
		setups   []float64
		resident float64
		segs     []segStat
		factors  []float64
		last     *measured
		d        *deployment
		rates    []float64
	)
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	for rep := 0; rep < sc.setupReps; rep++ {
		if d != nil {
			d.close()
			d = nil
		}
		before := heapAfterGC()
		clock := readCPUClock()
		t0 := time.Now()
		if d, err = bringUp(s, in, sc, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0).Seconds()
		setups = append(setups, took*(1-clock.stolenSince()))
		resident = (float64(heapAfterGC()) - float64(before)) / float64(in.triples)

		clock = readCPUClock()
		if last, err = measure(s, d, in, sc, share, host); err != nil {
			return nil, err
		}
		f := hostFactor(last.ref) / (1 - clock.stolenSince())
		segLen := share / time.Duration(nseg)
		repSegs := segmentsOf(last.ops, segLen, nseg)
		normalize(repSegs, f, last.ref, segLen)
		segs = append(segs, repSegs...)
		factors = append(factors, f)
		res.Attempted += last.attempted
		res.Failed += last.failed
		if last.rate > 0 {
			if !s.writer {
				last.rate *= f
			}
			rates = append(rates, last.rate)
		}
		fmt.Fprintf(logw, "%s: bring-up %d/%d in %.2fs, then measured at host factor %.3f\n", s.name, rep+1, sc.setupReps, took, f)
	}
	res.set("setup_s", median(setups), "s")
	res.set("resident_bytes_per_triple", resident, "B")
	res.set("select_cost_ratio", last.costRatio, "ratio")

	sum := summarizeSegs(segs)
	if len(rates) > 0 {
		sum.PerSec = median(rates)
	}
	res.set("op_p50_us", us(sum.P50), "us")
	res.set("op_p95_us", us(sum.P95), "us")
	res.set("op_per_s", sum.PerSec, "1/s")
	res.notes = append(res.notes, fmt.Sprintf("%d samples in %d segments; fewest beyond p50 in a segment %d, beyond p95 %d",
		sum.Samples, len(segs), sum.MinBeyond50, sum.MinBeyond95))
	res.notes = append(res.notes, fmt.Sprintf("per-segment p50 %v, p95 %v", sum.SegP50, sum.SegP95))
	res.notes = append(res.notes, fmt.Sprintf("op times are reference-host times: wall-clock time / host factor; the measured phases' factors were %.3f", factors))
	if sum.MinBeyond50 < beyondRule {
		res.notes = append(res.notes, "op_p50_us unresolved: fewer than 10 samples beyond it")
	}
	if sum.MinBeyond95 < beyondRule {
		res.notes = append(res.notes, "op_p95_us unresolved: fewer than 10 samples beyond it")
	}

	t0 = time.Now()
	var checked, bad int
	if s.serve {
		checked, bad, err = verifyServe(d, in, last.residue)
	} else {
		checked, bad, err = verifySelect(s, in, last.recs)
	}
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	fmt.Fprintf(logw, "%s: %d answers verified in %.2fs\n", s.name, checked, time.Since(t0).Seconds())
	res.Attempted += checked
	res.Failed += bad
	res.Correct = res.Failed == 0
	return res, nil
}

// measured is one measured phase on one deployment.
type measured struct {
	ops               []*workerLog // the workload's operation, one log per generator
	ref               []refSample  // host reference readings taken during the phase
	attempted, failed int
	// rate, when set, replaces the per-segment completion counts: a segment
	// holds too few selections to count them (wall-clock completions per
	// second of selecting, which the caller scales by the host factor), and
	// an open-loop schedule completes exactly its rate per segment by
	// construction (a count over time the host's speed does not enter).
	rate      float64
	costRatio float64
	residue   []string                   // serve-churn: updates still applied
	recs      []*rdfviews.Recommendation // select-*: the last repetition's
}

// measure runs the workload's measured phase on d for dur.
func measure(s spec, d *deployment, in *inputs, sc scale, dur time.Duration, host *hostRef) (*measured, error) {
	if !s.serve {
		log, ref, recs, err := selectPhase(s, d, sc, dur, host)
		if err != nil {
			return nil, err
		}
		var busy time.Duration
		for _, op := range log.samples {
			busy += op.dur
		}
		m := &measured{ops: []*workerLog{log}, ref: ref, attempted: len(log.samples), recs: recs,
			rate: float64(len(log.samples)) / busy.Seconds()}
		for _, rec := range recs {
			m.costRatio += (1 - rec.RCR()) / float64(len(recs))
		}
		return m, nil
	}
	ph, err := servePhase(s, d, d.plain.url, in, sc, dur, host, nil)
	if err != nil {
		return nil, err
	}
	m := &measured{ops: []*workerLog{ph.reads}, ref: ph.ref, costRatio: 1 - d.rec.RCR(), residue: ph.residue}
	if w := ph.writes; s.writer && len(w.samples) > 0 {
		m.ops = []*workerLog{w}
		end := w.samples[len(w.samples)-1]
		m.rate = float64(len(w.samples)) / (end.at + end.dur).Seconds()
	}
	m.attempted, m.failed = ph.attempted()
	return m, nil
}

// segments is how many equal segments a run's measured phases are cut into
// (a multiple of every scale's setupReps).
const segments = 12

// selectOnce is one repetition of a select-* workload: one Recommend for
// select-plain; one post-reformulation plus one pre-reformulation Recommend
// for select-reform.
func selectOnce(s spec, d *deployment, sc scale) ([]*rdfviews.Recommendation, error) {
	if s.name == "select-plain" {
		rec, err := d.db.Recommend(d.wl, searchOptions(rdfviews.ReasoningNone, sc.plainStates))
		if err != nil {
			return nil, err
		}
		return []*rdfviews.Recommendation{rec}, nil
	}
	var recs []*rdfviews.Recommendation
	for _, mode := range []rdfviews.Reasoning{rdfviews.ReasoningPost, rdfviews.ReasoningPre} {
		rec, err := d.db.Recommend(d.wl, searchOptions(mode, sc.reformStates))
		if err != nil {
			return nil, fmt.Errorf("recommend (%s): %w", mode, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// selectReadings is how many readings of the host reference follow each
// repetition of a select-* workload.
const selectReadings = 5

// selectPhase repeats selectOnce for dur, one sample per repetition, each
// followed by readings of the host reference, and returns the last
// repetition's recommendations.
func selectPhase(s spec, d *deployment, sc scale, dur time.Duration, host *hostRef) (*workerLog, []refSample, []*rdfviews.Recommendation, error) {
	log := newWorkerLog(1024)
	var ref []refSample
	var recs []*rdfviews.Recommendation
	start := time.Now()
	for time.Since(start) < dur {
		t0 := time.Now()
		var err error
		if recs, err = selectOnce(s, d, sc); err != nil {
			return nil, nil, nil, err
		}
		for _, rec := range recs {
			if rec.Result().TimedOut {
				return nil, nil, nil, fmt.Errorf("search stopped by its timeout, not by MaxStates")
			}
		}
		log.observe(t0.Sub(start), time.Since(t0))
		ref = host.take(ref, selectReadings, t0.Sub(start))
	}
	return log, ref, recs, nil
}

// phase is what a serve-* measured phase recorded.
type phase struct {
	reads   *workerLog
	ref     []refSample // host reference readings, taken by the reader between requests
	writes  *workerLog  // serve-churn's update stream (time inside Insert/Delete), nil otherwise
	due     *workerLog  // the same updates timed from the instant each was due
	pace    *openLoop
	residue []string // updates still applied at the end
	lagMax  int
	behind  uint64
	flush   time.Duration
}

func (p *phase) attempted() (attempted, failed int) {
	logs := []*workerLog{p.reads}
	if p.writes != nil {
		logs = append(logs, p.writes)
	}
	for _, l := range logs {
		attempted += len(l.samples) + l.failed
		failed += l.failed
	}
	return attempted, failed
}

// servePhase drives the deployment for dur: one closed-loop client walks the
// request list, sending its next request when the previous response is fully
// drained, and reads the host reference (host != nil) every refEvery between
// two requests; with s.writer one more goroutine applies the update stream on
// an open-loop schedule. One client, because the server runs in this process
// on the same two vCPUs: a second one keeps both busy with generator and
// server at once, and what is measured then is how the scheduler interleaves
// them. In a traced run tp hands out request ids, records the client spans
// and bounds the operations per generator.
func servePhase(s spec, d *deployment, url string, in *inputs, sc scale, dur time.Duration, host *hostRef, tp *tracedPass) (*phase, error) {
	if len(in.requests) == 0 {
		return nil, fmt.Errorf("no requests generated")
	}
	ph := &phase{reads: newWorkerLog(int(dur.Seconds()+1) * 20000)}
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := newClient(url)
		defer cl.close()
		lastRef := start
		for n := 0; time.Since(start) < dur && (tp == nil || n < tp.limit); n++ {
			q := in.requests[n%len(in.requests)]
			id := 0
			if tp != nil {
				id = tp.begin(q)
			}
			t0 := time.Now()
			_, err := cl.do(q, id)
			took := time.Since(t0)
			if tp != nil {
				tp.end(id, t0, took)
			}
			if err != nil {
				ph.reads.failed++
				continue
			}
			ph.reads.observe(t0.Sub(start), took)
			if host != nil && time.Since(lastRef) >= refEvery {
				ph.ref = host.take(ph.ref, 1, time.Since(start))
				lastRef = time.Now()
			}
		}
	}()
	if s.writer {
		if err := churn(d, in, sc, dur, start, ph, tp); err != nil {
			wg.Wait()
			return nil, err
		}
	}
	wg.Wait()
	return ph, nil
}

// churn is serve-churn's writer. Operation i is due i/rate seconds after
// start and is timed twice: inside LiveViews.Insert/Delete (ph.writes, the
// workload's operation) and from its due time to the call's return (ph.due),
// which charges a stall to every update that was due during it. The second is
// what an open-loop generator should report — and on two vCPUs kept busy by
// the reader it is nine tenths the generator's own wake-up: the calls take
// 18 µs at the median while timers fire 150 µs late at the median and
// milliseconds late at p95, whatever the update rate. So the due-time
// latencies and the generator's lateness are per-layer metrics of the traced
// run, and the end-to-end numbers are the time the updater spends in the call.
func churn(d *deployment, in *inputs, sc scale, dur time.Duration, start time.Time, ph *phase, tp *tracedPass) error {
	for _, line := range in.updates[:churnLag] {
		if _, err := d.lv.Insert(line); err != nil {
			return fmt.Errorf("preload insert: %w", err)
		}
	}
	startGen := d.lv.PublishGen()
	ops := int(dur.Seconds() * float64(sc.updatesPerSec))
	if tp != nil {
		ops = min(ops, tp.limit)
	}
	ph.writes, ph.due = newWorkerLog(ops), newWorkerLog(ops)
	ph.pace = newOpenLoop(start, sc.updatesPerSec, ops)
	for i := 0; i < ops; i++ {
		due := ph.pace.wait(i)
		var err error
		t0 := time.Now()
		if i%2 == 0 {
			_, err = d.lv.Insert(in.updates[churnLag+i/2])
		} else {
			_, err = d.lv.Delete(in.updates[i/2])
		}
		took := time.Since(t0)
		if tp != nil {
			tp.update(t0, took)
		}
		if err != nil {
			ph.writes.failed++
			continue
		}
		issued := t0.Sub(start)
		ph.writes.observe(issued, took)
		ph.due.observe(due, issued+took-due)
		lag, behind := d.lv.Lag()
		ph.lagMax = max(ph.lagMax, lag)
		ph.behind = max(ph.behind, behind)
	}
	t0 := time.Now()
	if err := d.lv.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	ph.flush = time.Since(t0)
	// Inserts ops/2 .. ops/2+churnLag-1 (shifted by the preload) were never
	// deleted.
	ph.residue = in.updates[ops/2 : (ops+1)/2+churnLag]
	if tp != nil {
		tp.publishGens = d.lv.PublishGen() - startGen
	}
	return nil
}

func rowSet(rows [][]string) map[string]struct{} {
	set := make(map[string]struct{}, len(rows))
	for _, r := range rows {
		set[strings.Join(r, "\x00")] = struct{}{}
	}
	return set
}

func sameSet(a, b map[string]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// verifyServe re-issues every distinct request once over HTTP, decodes the
// SPARQL JSON and compares the rows as a set with the oracle's. For
// serve-churn it runs after Flush, with the residue applied to the oracle.
func verifyServe(d *deployment, in *inputs, residue []string) (checked, mismatches int, err error) {
	o, err := newOracle(in, true, residue)
	if err != nil {
		return 0, 0, err
	}
	p, dct := o.parser()
	cl := newClient(d.plain.url)
	defer cl.close()
	for _, text := range in.distinct {
		got, err := cl.rows(text)
		if err != nil {
			return checked, mismatches, fmt.Errorf("%s: %w", text, err)
		}
		p.ResetNames()
		q, err := p.ParseSPARQL(text)
		if err != nil {
			return checked, mismatches, err
		}
		want, err := o.answer(q, dct)
		if err != nil {
			return checked, mismatches, err
		}
		checked++
		if !sameSet(rowSet(got), want) {
			mismatches++
			if mismatches <= 3 {
				fmt.Fprintf(logw, "oracle mismatch: %s: served %d distinct rows, oracle %d\n", text, len(rowSet(got)), len(want))
			}
		}
	}
	return checked, mismatches, nil
}

// rows issues one request and decodes the result document into rows in
// head.vars order.
func (c *client) rows(query string) ([][]string, error) {
	resp, err := c.post(query, 0)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Head    struct{ Vars []string }
		Results struct {
			Bindings []map[string]struct{ Value string }
		}
		Error string
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	if doc.Error != "" {
		return nil, fmt.Errorf("server error member: %s", doc.Error)
	}
	out := make([][]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		row := make([]string, len(doc.Head.Vars))
		for j, v := range doc.Head.Vars {
			row[j] = b[v].Value
		}
		out[i] = row
	}
	return out, nil
}

// verifySelect materializes each recommendation and compares every
// Materialized.Answer(i) with the oracle's answer to workload query i.
func verifySelect(s spec, in *inputs, recs []*rdfviews.Recommendation) (checked, mismatches int, err error) {
	o, err := newOracle(in, s.reasoning != rdfviews.ReasoningNone, nil)
	if err != nil {
		return 0, 0, err
	}
	p, dct := o.parser()
	qs, err := p.ParseWorkload(in.workload)
	if err != nil {
		return 0, 0, err
	}
	want := make([]map[string]struct{}, len(qs))
	for i, q := range qs {
		if want[i], err = o.answer(q, dct); err != nil {
			return 0, 0, err
		}
	}
	for _, rec := range recs {
		mat, err := rec.Materialize()
		if err != nil {
			return checked, mismatches, err
		}
		for i := range want {
			got, err := mat.Answer(i)
			if err != nil {
				return checked, mismatches, err
			}
			checked++
			if !sameSet(rowSet(got), want[i]) {
				mismatches++
				if mismatches <= 3 {
					fmt.Fprintf(logw, "oracle mismatch: workload query %d: views give %d distinct rows, oracle %d\n", i, len(rowSet(got)), len(want[i]))
				}
			}
		}
	}
	return checked, mismatches, nil
}
