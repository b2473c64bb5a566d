package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rdfviews"
	"rdfviews/internal/algebra"
	"rdfviews/internal/core"
	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/plancache"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/stats"
	"rdfviews/internal/store"
)

// The traced run: one bring-up, then each workload at a fixed operation count
// with one generator per role — first untraced against the plain endpoint
// (the baseline), then traced against the instrumented one — then the replay
// of sampled operations through the layers' public functions, then the
// per-layer metrics. Counts are read at the same boundaries as the spans.

// perLayerUnits lists every per-layer metric with its unit. A traced run
// reports all of them for every workload: a layer a workload does not
// exercise reports 0, which is the prediction "this workload does not move
// with that layer" made checkable.
var perLayerUnits = map[string]string{
	// selection (from the facade's search report and the selection replay)
	"core.search_ms":        "ms",
	"core.states_created":   "count",
	"core.states_per_s":     "1/s",
	"core.transitions":      "count",
	"core.explored":         "count",
	"core.duplicate_ratio":  "ratio",
	"core.discarded_ratio":  "ratio",
	"core.initial_state_us": "us",
	"cost.state_cost_us":    "us",
	"cq.canonical_code_us":  "us",
	"reason.reformulate_ms": "ms",
	"reason.union_terms":    "count",
	"stats.build_ms":        "ms",
	// set-up (the bring-up's stage clock)
	"gen.inputs_ms":            "ms",
	"load.ms":                  "ms",
	"cq.parse_workload_us":     "us",
	"engine.materialize_ms":    "ms",
	"engine.materialize_rows":  "count",
	"persist.save_ms":          "ms",
	"persist.load_ms":          "ms",
	"persist.bytes_per_triple": "B",
	// request path: real spans and ledgers
	"wire.us":                        "us",
	"server.handler_us":              "us",
	"server.encode_us":               "us",
	"server.shed_ratio":              "ratio",
	"server.bytes_per_row":           "B",
	"server.read_p50_us":             "us",
	"server.read_p95_us":             "us",
	"server.read_per_s":              "1/s",
	"rdfviews.open_us":               "us",
	"rdfviews.next_us":               "us",
	"rdfviews.compile_us":            "us",
	"plancache.hit_ratio":            "ratio",
	"plancache.evictions_per_query":  "count",
	"store.shards_opened_per_cursor": "count",
	// request path: replayed spans
	"cq.parse_us":             "us",
	"cq.lift_us":              "us",
	"plancache.lookup_us":     "us",
	"reason.reformulate_us":   "us",
	"engine.plan_us":          "us",
	"engine.exec_store_us":    "us",
	"engine.exec_views_us":    "us",
	"engine.rows_per_s":       "1/s",
	"store.cursor_rows_per_s": "1/s",
	"dict.decode_ns_per_id":   "ns",
	// update path (serve-churn)
	"maintain.insert_us":         "us",
	"maintain.due_p50_us":        "us",
	"maintain.due_p95_us":        "us",
	"maintain.flush_ms":          "ms",
	"maintain.lag_max":           "count",
	"maintain.epochs_behind_max": "count",
	"maintain.publish_gens":      "count",
	"store.add_us":               "us",
	"store.snapshot_us":          "us",
	"gen.late_p95_us":            "us",
	// process
	"proc.alloc_bytes_per_query": "B",
	"proc.heap_bytes_per_triple": "B",
	"proc.gc_pause_total_ms":     "ms",
	"trace.overhead_ratio":       "ratio",
}

// replaySample caps how many requests of a traced pass are replayed.
const replaySample = 256

func runTraced(s spec, seed int64, dur time.Duration, sc scale, outDir string) (*runResult, error) {
	res := &runResult{Metrics: make(map[string]metric)}
	for name, unit := range perLayerUnits {
		res.set(name, 0, unit)
	}
	put := func(name string, v float64) { res.set(name, v, perLayerUnits[name]) }

	t0 := time.Now()
	in, err := generateInputs(s.name, seed, sc)
	if err != nil {
		return nil, err
	}
	put("gen.inputs_ms", ms(time.Since(t0)))

	tr := newTracer()
	d, err := bringUp(s, in, sc, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()
	put("load.ms", ms(d.stages["load"]))
	put("persist.save_ms", ms(d.stages["save"]))
	put("persist.load_ms", ms(d.stages["open"]))
	put("persist.bytes_per_triple", float64(d.imageBytes)/float64(in.triples))
	put("cq.parse_workload_us", us(d.stages["parse_workload"]))
	put("proc.heap_bytes_per_triple", float64(heapAfterGC())/float64(in.triples))

	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	var ops int
	if s.serve {
		put("engine.materialize_ms", ms(d.stages["materialize"]))
		put("engine.materialize_rows", float64(d.lv.NumRows()))
		if ops, err = tracedServe(s, d, in, sc, dur, tr, res, put); err != nil {
			return nil, err
		}
		err = replaySelection(tr, d, []*rdfviews.Recommendation{d.rec}, []rdfviews.Reasoning{s.reasoning}, sc.deployStates, res, put)
	} else {
		ops, err = tracedSelect(s, d, sc, tr, res, put)
	}
	if err != nil {
		return nil, err
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	put("proc.gc_pause_total_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)

	res.Attempted += ops
	res.Correct = res.Failed == 0
	meta := map[string]any{"workload": s.name, "seed": seed, "operations": ops, "env": stampEnvironment()}
	if err := tr.write(filepath.Join(outDir, "trace-"+s.name+".json"), meta); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedServe runs the baseline and traced passes of a serve-* workload and
// derives the request-path metrics.
func tracedServe(s spec, d *deployment, in *inputs, sc scale, dur time.Duration, tr *tracer, res *runResult, put func(string, float64)) (int, error) {
	limit := sc.traceOps
	if s.name == "serve-scan" {
		limit = max(len(in.requests), sc.traceOps/20)
	}
	base, err := servePhase(s, d, d.plain.url, in, sc, dur, nil, &tracedPass{limit: limit})
	if err != nil {
		return 0, err
	}
	if s.writer {
		// The baseline's residue must be deleted again so the traced pass
		// starts from the same update stream position.
		for _, line := range base.residue {
			if _, err := d.lv.Delete(line); err != nil {
				return 0, err
			}
		}
		if err := d.lv.Flush(); err != nil {
			return 0, err
		}
	}

	cache0, prune0, srv0 := d.lv.CacheStats(), d.lv.PruneStats(), d.traced.srv.Counters().Snapshot()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tp := &tracedPass{tr: tr, limit: limit}
	ph, err := servePhase(s, d, d.traced.url, in, sc, dur, nil, tp)
	if err != nil {
		return 0, err
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	cache1, prune1, srv1 := d.lv.CacheStats(), d.lv.PruneStats(), d.traced.srv.Counters().Snapshot()

	reads := float64(len(tp.order))
	attempted, failed := ph.attempted()
	res.Failed += failed
	if len(ph.reads.samples) == 0 || len(base.reads.samples) == 0 {
		return attempted, fmt.Errorf("a traced-run pass completed no request")
	}

	// Real spans: per-request means, and self time = duration − children.
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	self := selfTimes(spans)
	sumDur := map[string]time.Duration{}
	sumSelf := map[string]time.Duration{}
	count := map[string]int{}
	for _, sp := range spans {
		sumDur[sp.Name] += sp.dur()
		sumSelf[sp.Name] += self[sp.ID]
		count[sp.Name]++
	}
	put("server.handler_us", us(sumDur["server.handler"])/reads)
	put("server.encode_us", us(sumSelf["server.handler"])/reads)
	put("rdfviews.open_us", us(sumDur["rdfviews.open"])/reads)
	put("rdfviews.next_us", us(sumDur["rdfviews.next"])/reads)
	put("wire.us", us(sumSelf["client.request"])/reads)

	// Counters at the same boundaries.
	if lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses); lookups > 0 {
		put("plancache.hit_ratio", float64(cache1.Hits-cache0.Hits)/float64(lookups))
	}
	put("plancache.evictions_per_query", float64(cache1.Evictions-cache0.Evictions)/reads)
	put("rdfviews.compile_us", us(cache1.CompileTime-cache0.CompileTime)/reads)
	if opens := prune1.Opens - prune0.Opens; opens > 0 && !s.writer {
		// With a writer the ledger also counts the refresher's delta scans.
		put("store.shards_opened_per_cursor", float64(prune1.ShardsOpened-prune0.ShardsOpened)/float64(opens))
	}
	if req := srv1.Requests - srv0.Requests; req > 0 {
		put("server.shed_ratio", float64((srv1.ShedFull-srv0.ShedFull)+(srv1.ShedWait-srv0.ShedWait))/float64(req))
	}
	if rows := srv1.Rows - srv0.Rows; rows > 0 {
		put("server.bytes_per_row", float64(srv1.Bytes-srv0.Bytes)/float64(rows))
	}
	put("proc.alloc_bytes_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/reads)

	// Read-side latency (serve-churn's op is the update, so its reads are
	// reported here) and the tracing overhead against the baseline pass.
	tsum, bsum := wholePass(ph.reads), wholePass(base.reads)
	put("server.read_p50_us", us(bsum.P50))
	put("server.read_p95_us", us(bsum.P95))
	put("server.read_per_s", bsum.PerSec)
	if bsum.P50 > 0 {
		put("trace.overhead_ratio", float64(tsum.P50)/float64(bsum.P50))
	}

	if s.writer {
		put("maintain.insert_us", us(sumDur["maintain.update"])/float64(max(1, count["maintain.update"])))
		put("maintain.flush_ms", ms(ph.flush))
		put("maintain.lag_max", float64(ph.lagMax))
		put("maintain.epochs_behind_max", float64(ph.behind))
		put("maintain.publish_gens", float64(tp.publishGens))
		late := append([]time.Duration(nil), ph.pace.late...)
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		p95, _ := quantile(late, 0.95)
		put("gen.late_p95_us", us(p95))
		dsum := wholePass(ph.due)
		put("maintain.due_p50_us", us(dsum.P50))
		put("maintain.due_p95_us", us(dsum.P95))
		replayStore(tr, d, in, put)
	}
	return attempted, replayRequests(tr, d, in, tp, put)
}

// wholePass summarizes the single client's pass as one segment.
func wholePass(log *workerLog) summary {
	last := log.samples[len(log.samples)-1]
	return summarize([]*workerLog{log}, last.at+time.Nanosecond, 1)
}

// sentinelBase mirrors the facade's parameter sentinels (serve.go): constant
// ids no dictionary hands out.
const sentinelBase dict.ID = 1 << 56

// replayRequests pushes a sample of the traced requests through the layers
// below the facade, one replayed span per call, mirroring what
// LiveViews.AnswerQueryStream does: parse, lift and canonicalize, plan-cache
// lookup whose miss path reformulates and plans a parameterized template,
// instantiate and execute (the maintained rewriting for view-routed
// requests), decode.
func replayRequests(tr *tracer, d *deployment, in *inputs, tp *tracedPass, put func(string, float64)) error {
	st := d.db.Store()
	dct := st.Dict()
	schema := reason.NewSchema(d.db.Schema(), dct)
	typeID, _ := dct.LookupIRI(rdf.RDFType)
	cache := plancache.New(0, nil)
	best := d.rec.Result().Best
	extents := make(map[algebra.ViewID]*engine.Relation, len(best.Views))
	for id, v := range best.Views {
		rel, err := engine.Materialize(st, v.Q)
		if err != nil {
			return fmt.Errorf("replay: materialize view: %w", err)
		}
		extents[id] = rel
	}
	resolver := engine.MapResolver(extents)

	step := max(1, len(tp.order)/replaySample)
	total := map[string]time.Duration{}
	var n, rows, ids int
	var storeExecs, viewExecs int
	for k := 0; k < len(tp.order); k += step {
		req := tp.order[k]
		text := tp.texts[req]
		root := tr.newID()
		rootStart := time.Now()
		var rerr error
		var q, lifted *cq.Query
		var params []cq.Term
		var vals []dict.ID
		var code string
		total["cq.parse"] += tr.timed(req, root, "cq.parse", func() {
			q, rerr = cq.NewParser(dct).ParseSPARQL(text)
		})
		if rerr != nil {
			return fmt.Errorf("replay: %w", rerr)
		}
		total["cq.lift"] += tr.timed(req, root, "cq.lift", func() {
			lifted, params, vals = cq.LiftConstants(q, typeID)
			code = lifted.CanonicalCode()
		})
		skel := lifted
		repr := make(map[dict.ID]dict.ID, len(params))
		for i, p := range params {
			skel = skel.Substitute(p, cq.Const(sentinelBase+dict.ID(i)))
			repr[sentinelBase+dict.ID(i)] = vals[i]
		}
		var members []*engine.QueryPlan
		lookupID := tr.newID()
		lookupStart := time.Now()
		v, _, err := cache.Do(code, nil, func() (any, error) {
			var u *cq.UCQ
			var cerr error
			total["reason.reformulate"] += tr.timed(req, lookupID, "reason.reformulate", func() {
				u, cerr = reason.Reformulate(skel, schema, 0)
			})
			if cerr != nil {
				return nil, cerr
			}
			var ms []*engine.QueryPlan
			total["engine.plan"] += tr.timed(req, lookupID, "engine.plan", func() {
				for _, mq := range u.Queries {
					p, perr := engine.PlanQueryParams(st, mq, repr)
					if perr != nil {
						cerr = perr
						return
					}
					ms = append(ms, p)
				}
			})
			return ms, cerr
		})
		lookupEnd := time.Now()
		tr.record(req, lookupID, root, "plancache.lookup", lookupStart, lookupEnd, true)
		if err != nil {
			return fmt.Errorf("replay: compile: %w", err)
		}
		members = v.([]*engine.QueryPlan)
		total["plancache.lookup"] += lookupEnd.Sub(lookupStart)

		var flat []dict.ID
		drain := func(rs *engine.RowStream) {
			defer rs.Close()
			for {
				slab, err := rs.Next()
				if err != nil {
					rerr = err
					return
				}
				if slab == nil {
					return
				}
				rows += len(slab)
				for _, row := range slab {
					flat = append(flat, row...)
				}
			}
		}
		if idx, routed := in.routed[text]; routed {
			viewExecs++
			total["engine.exec_views"] += tr.timed(req, root, "engine.exec_views", func() {
				rs, err := engine.ExecuteStream(best.Plans[idx], resolver, engine.ExecOptions{})
				if err != nil {
					rerr = err
					return
				}
				drain(rs)
			})
		} else {
			storeExecs++
			snap := st.Snapshot()
			total["engine.exec_store"] += tr.timed(req, root, "engine.exec_store", func() {
				streams := make([]*engine.RowStream, len(members))
				for i, p := range members {
					streams[i] = p.Instantiate(snap, repr).EvalStream(engine.ExecOptions{})
				}
				if len(streams) == 1 {
					drain(streams[0])
					return
				}
				rs, err := engine.UnionStreams(streams, 64)
				if err != nil {
					rerr = err
					return
				}
				drain(rs)
			})
		}
		if rerr != nil {
			return fmt.Errorf("replay: execute: %w", rerr)
		}
		ids += len(flat)
		total["dict.decode"] += tr.timed(req, root, "dict.decode", func() {
			for _, id := range flat {
				if _, err := dct.Decode(id); err != nil {
					rerr = err
				}
			}
		})
		if rerr != nil {
			return fmt.Errorf("replay: decode: %w", rerr)
		}
		tr.record(req, root, 0, "replay", rootStart, time.Now(), true)
		n++
	}
	per := func(name string) float64 { return us(total[name]) / float64(n) }
	put("cq.parse_us", per("cq.parse"))
	put("cq.lift_us", per("cq.lift"))
	put("plancache.lookup_us", per("plancache.lookup"))
	put("reason.reformulate_us", per("reason.reformulate"))
	put("engine.plan_us", per("engine.plan"))
	if storeExecs > 0 {
		put("engine.exec_store_us", us(total["engine.exec_store"])/float64(storeExecs))
	}
	if viewExecs > 0 {
		put("engine.exec_views_us", us(total["engine.exec_views"])/float64(viewExecs))
	}
	if exec := total["engine.exec_store"] + total["engine.exec_views"]; exec > 0 {
		put("engine.rows_per_s", float64(rows)/exec.Seconds())
	}
	if ids > 0 {
		put("dict.decode_ns_per_id", float64(total["dict.decode"])/float64(ids))
	}

	// Cursor throughput: drain one cursor over the most frequent property.
	if pid, ok := dct.LookupIRI("bartonlike:prop0"); ok {
		snap := st.Snapshot()
		scanned := 0
		took := tr.timed(0, 0, "store.cursor", func() {
			snap.Scan(store.Pattern{store.Wildcard, pid, store.Wildcard}, func(store.Triple) bool {
				scanned++
				return true
			})
		})
		if took > 0 {
			put("store.cursor_rows_per_s", float64(scanned)/took.Seconds())
		}
	}
	return nil
}

// replayStore times the store calls under LiveViews.Insert/Delete on a clone
// (so the deployment is untouched): Add and Remove of update triples, and
// taking a snapshot.
func replayStore(tr *tracer, d *deployment, in *inputs, put func(string, float64)) {
	clone := d.db.Store().Clone()
	n := min(len(in.updates), 512)
	ts := make([]store.Triple, 0, n)
	for _, line := range in.updates[:n] {
		if t, ok, err := rdf.ParseLine(line); err == nil && ok {
			ts = append(ts, clone.Encode(t))
		}
	}
	took := tr.timed(0, 0, "store.add", func() {
		for _, t := range ts {
			clone.Add(t)
		}
		for _, t := range ts {
			clone.Remove(t)
		}
	})
	put("store.add_us", us(took)/float64(max(1, 2*len(ts))))
	took = tr.timed(0, 0, "store.snapshot", func() {
		for i := 0; i < 64; i++ {
			_ = clone.Snapshot()
		}
	})
	put("store.snapshot_us", us(took)/64)
}

// tracedSelect runs a select-* workload's traced pass: two repetitions
// through the facade (spanned as a whole), then the replay.
func tracedSelect(s spec, d *deployment, sc scale, tr *tracer, res *runResult, put func(string, float64)) (int, error) {
	const reps = 2
	var baseline, traced []float64
	var recs []*rdfviews.Recommendation
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := selectOnce(s, d, sc); err != nil {
			return 0, err
		}
		baseline = append(baseline, float64(time.Since(t0)))
	}
	for i := 0; i < reps; i++ {
		id := tr.newID()
		t0 := time.Now()
		var err error
		if recs, err = selectOnce(s, d, sc); err != nil {
			return 0, err
		}
		tr.record(id, id, 0, "rdfviews.recommend", t0, time.Now(), false)
		traced = append(traced, float64(time.Since(t0)))
	}
	if b := median(baseline); b > 0 {
		put("trace.overhead_ratio", median(traced)/b)
	}
	modes := []rdfviews.Reasoning{rdfviews.ReasoningNone}
	states := sc.plainStates
	if len(recs) == 2 {
		modes = []rdfviews.Reasoning{rdfviews.ReasoningPost, rdfviews.ReasoningPre}
		states = sc.reformStates
	}
	return reps, replaySelection(tr, d, recs, modes, states, res, put)
}

// replaySelection mirrors Database.Recommend (recommend.go) through the
// layers' public functions — statistics provider, reformulation (pre),
// initial state, estimator and calibration, search — one replayed span per
// call, and requires the replayed search to reproduce the facade's counters
// exactly. The search-shaped metrics come from the facade's own report.
func replaySelection(tr *tracer, d *deployment, recs []*rdfviews.Recommendation, modes []rdfviews.Reasoning, maxStates int, res *runResult, put func(string, float64)) error {
	st := d.db.Store()
	schema := reason.NewSchema(d.db.Schema(), st.Dict())
	queries := d.wl.Queries
	total := map[string]time.Duration{}
	var created, dup, disc, explored, transitions, terms int
	var searched time.Duration
	var est *cost.Estimator
	var best *core.State
	for i, mode := range modes {
		root := tr.newID()
		rootStart := time.Now()
		var provider cost.Stats
		total["stats.build"] += tr.timed(root, root, "stats.build", func() {
			if mode == rdfviews.ReasoningPost {
				provider = stats.NewReformulatedStats(st, schema)
			} else {
				provider = stats.NewStoreStats(st)
			}
		})
		var s0 *core.State
		var ctx *core.Ctx
		var err error
		if mode == rdfviews.ReasoningPre {
			reforms := make([]*cq.UCQ, len(queries))
			total["reason.reformulate"] += tr.timed(root, root, "reason.reformulate", func() {
				for qi, q := range queries {
					if reforms[qi], err = reason.Reformulate(q, schema, 0); err != nil {
						return
					}
					terms += reforms[qi].Len()
				}
			})
			if err != nil {
				return fmt.Errorf("replay: reformulate: %w", err)
			}
			total["core.initial_state"] += tr.timed(root, root, "core.initial_state", func() {
				s0, ctx, err = core.InitialStateUCQ(queries, reforms)
			})
		} else {
			total["core.initial_state"] += tr.timed(root, root, "core.initial_state", func() {
				s0, ctx, err = core.InitialState(queries)
			})
		}
		if err != nil {
			return fmt.Errorf("replay: initial state: %w", err)
		}
		tr.timed(root, root, "cost.calibrate", func() {
			est = cost.NewEstimator(provider, cost.DefaultWeights())
			est.W.CM = est.CalibrateCM(s0.ViewQueries(), s0.Plans)
		})
		var sr core.Result
		tr.timed(root, root, "core.search", func() {
			sr, err = core.Search(s0, ctx, core.Options{
				Strategy: core.DFS, AVF: true, STV: true,
				Timeout: 10 * time.Minute, MaxStates: maxStates,
				Estimator: est, Timeline: true,
			})
		})
		if err != nil {
			return fmt.Errorf("replay: search: %w", err)
		}
		tr.record(root, root, 0, "replay", rootStart, time.Now(), true)

		fr := recs[i].Result()
		res.Attempted++
		if sr.Counters != fr.Counters || sr.Transitions != fr.Transitions {
			res.Failed++
			fmt.Fprintf(logw, "replay (%s): counters %+v/%d, facade %+v/%d\n", mode, sr.Counters, sr.Transitions, fr.Counters, fr.Transitions)
		}
		created += fr.Counters.Created
		dup += fr.Counters.Duplicates
		disc += fr.Counters.Discarded
		explored += fr.Counters.Explored
		transitions += fr.Transitions
		searched += fr.Duration
		best = fr.Best
	}
	put("core.search_ms", ms(searched))
	put("core.states_created", float64(created))
	put("core.transitions", float64(transitions))
	put("core.explored", float64(explored))
	if created > 0 {
		put("core.duplicate_ratio", float64(dup)/float64(created))
		put("core.discarded_ratio", float64(disc)/float64(created))
	}
	if searched > 0 {
		put("core.states_per_s", float64(created)/searched.Seconds())
	}
	put("core.initial_state_us", us(total["core.initial_state"]))
	put("stats.build_ms", ms(total["stats.build"]))
	put("reason.reformulate_ms", ms(total["reason.reformulate"]))
	put("reason.union_terms", float64(terms))

	// The two calls the search spends its time in, timed on the best state.
	views := best.ViewQueries()
	const costCalls = 200
	took := tr.timed(0, 0, "cost.state_cost", func() {
		for i := 0; i < costCalls; i++ {
			est.CostState(views, best.Plans)
		}
	})
	put("cost.state_cost_us", us(took)/costCalls)
	codes := 0
	took = tr.timed(0, 0, "cq.canonical_code", func() {
		for i := 0; i < 20; i++ {
			for _, v := range views {
				_ = v.CanonicalCode()
				codes++
			}
		}
	})
	if codes > 0 {
		put("cq.canonical_code_us", us(took)/float64(codes))
	}
	return nil
}
