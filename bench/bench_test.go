package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func quiet(t *testing.T) {
	t.Helper()
	old := logw
	logw = io.Discard
	t.Cleanup(func() { logw = old })
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, want)
		}
	}
	if len(bf.PerLayer) != len(perLayerUnits) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(perLayerUnits))
	}
	for _, m := range bf.PerLayer {
		if unit, ok := perLayerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %s [%s]: program has unit %q (known: %v)", m.Name, m.Unit, unit, ok)
		}
	}
}

func checkMetrics(t *testing.T, workload string, res *runResult, names map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range names {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", workload, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
			t.Errorf("%s: metric %s = %v", workload, name, m.Value)
		}
	}
	if len(res.Metrics) != len(names) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", workload, len(res.Metrics), len(names))
	}
}

// exactCounts are per-layer counts that a fixed seed must reproduce bit for
// bit (single client, fixed operation count, no timers involved).
var exactCounts = []string{"core.states_created", "core.transitions", "core.explored",
	"reason.union_terms", "engine.materialize_rows", "store.shards_opened_per_cursor"}

// All six workloads at toy scale: every metric BENCHMARK.json names is
// emitted, finite and unit-tagged, the oracle agrees, the span file holds what
// the README says, and exact counts repeat across two runs of one seed.
func TestWorkloadsAtToyScale(t *testing.T) {
	quiet(t)
	bf := readBenchmarkFile(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	dir := t.TempDir()
	for _, s := range specs {
		res, err := runWorkload(s, 1, 300*time.Millisecond, toyScale)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkMetrics(t, s.name, res, e2e)
		for name := range e2e {
			if res.Metrics[name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", s.name, name)
			}
		}

		traced, err := runTraced(s, 1, time.Second, toyScale, dir)
		if err != nil {
			t.Fatalf("%s traced: %v", s.name, err)
		}
		checkMetrics(t, s.name+" traced", traced, layers)
		checkSpanFile(t, filepath.Join(dir, "trace-"+s.name+".json"), s.serve)

		// One selection and one single-client serving workload suffice (and
		// keep the test short); serve-churn's refresher batching is
		// timing-dependent by nature.
		if s.name != "select-reform" && s.name != "serve-point" {
			continue
		}
		again, err := runTraced(s, 1, time.Second, toyScale, dir)
		if err != nil {
			t.Fatalf("%s traced again: %v", s.name, err)
		}
		for _, name := range exactCounts {
			if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: %s = %v then %v with one seed", s.name, name, a, b)
			}
		}
	}
}

func TestCostRatioRepeatsExactly(t *testing.T) {
	quiet(t)
	s, _ := specByName("select-plain")
	var got []float64
	for i := 0; i < 2; i++ {
		res, err := runWorkload(s, 5, 50*time.Millisecond, toyScale)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Metrics["select_cost_ratio"].Value)
	}
	if got[0] != got[1] || got[0] <= 0 || got[0] > 1 {
		t.Errorf("select_cost_ratio = %v then %v", got[0], got[1])
	}
}

// checkSpanFile verifies the trace contract: spans of one request share its
// id, replayed spans are marked (and only they), and the self times under a
// request's root add up to the root's duration.
func checkSpanFile(t *testing.T, path string, serve bool) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Meta  map[string]any
		Spans []span
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Meta["env"] == nil || doc.Meta["seed"] == nil {
		t.Errorf("%s: no environment stamp or seed in %v", path, doc.Meta)
	}
	byID := map[int]span{}
	for _, s := range doc.Spans {
		byID[s.ID] = s
	}
	real := map[string]bool{"client.request": true, "server.handler": true, "rdfviews.open": true,
		"rdfviews.next": true, "maintain.update": true, "rdfviews.recommend": true}
	self := selfTimes(doc.Spans)
	perReq := map[int]time.Duration{}
	roots, replayed := 0, 0
	for _, s := range doc.Spans {
		if s.Replayed == real[s.Name] {
			t.Fatalf("%s: span %q replayed=%v", path, s.Name, s.Replayed)
		}
		if s.Replayed {
			replayed++
			continue
		}
		if s.Parent != 0 {
			if p, ok := byID[s.Parent]; !ok || p.Req != s.Req {
				t.Fatalf("%s: span %d (%s) of request %d has parent %d of request %d", path, s.ID, s.Name, s.Req, s.Parent, p.Req)
			}
		}
		perReq[s.Req] += self[s.ID]
		if s.Name == "client.request" {
			roots++
		}
	}
	for _, s := range doc.Spans {
		if s.Name != "client.request" {
			continue
		}
		if diff := (perReq[s.Req] - s.dur()).Abs(); diff > s.dur()/10 {
			t.Fatalf("%s: request %d: self times sum to %v, request span is %v", path, s.Req, perReq[s.Req], s.dur())
		}
	}
	if serve && roots == 0 {
		t.Errorf("%s: no client.request span", path)
	}
	if replayed == 0 {
		t.Errorf("%s: no replayed span", path)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, name := range []string{"select-plain", "serve-churn"} {
		a, err := generateInputs(name, 1, toyScale)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generateInputs(name, 1, toyScale)
		c, _ := generateInputs(name, 2, toyScale)
		if !bytes.Equal(a.data, b.data) || a.workload != b.workload ||
			strings.Join(a.requests, "\n") != strings.Join(b.requests, "\n") ||
			strings.Join(a.updates, "\n") != strings.Join(b.updates, "\n") {
			t.Errorf("%s: one seed gave two different input sets", name)
		}
		if bytes.Equal(a.data, c.data) {
			t.Errorf("%s: seeds 1 and 2 gave the same data", name)
		}
		if name == "serve-churn" && strings.Join(a.requests, "\n") == strings.Join(c.requests, "\n") {
			t.Errorf("%s: seeds 1 and 2 gave the same requests", name)
		}
	}
	if _, err := generateInputs("no-such-workload", 1, toyScale); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scaleP50 float64, wobble float64) string {
		var buf bytes.Buffer
		for run := 0; run < 4; run++ {
			for _, s := range specs {
				rec := record{Workload: s.name, Seed: int64(run)}
				rec.Metrics = map[string]metric{}
				for _, m := range endToEnd {
					v := 100.0
					if m.name == "op_p50_us" {
						v = 100 * scaleP50 * (1 + wobble*float64(run-2))
					}
					rec.Metrics[m.name] = metric{v, m.unit}
				}
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(append(line, '\n'))
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", 1, 0)
	for _, c := range []struct {
		file    string
		ok      bool
		verdict string
	}{
		{write("same.jsonl", 1, 0), true, "within"},
		{write("slow.jsonl", 1.5, 0), false, "worse"},
		{write("fast.jsonl", 0.5, 0), true, "better"},
		{write("noisy.jsonl", 1, 0.4), false, "unresolved"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, c.file)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok=%v, output lacks %q:\n%s", c.file, ok, c.verdict, out.String())
		}
	}
}
