// Command bench is the repository's benchmark: six named workloads from
// off-line view selection to the /sparql endpoint, end-to-end metrics from
// untraced runs, per-layer metrics from a separate traced run, and an
// independent oracle over every answer. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./bench                                   every workload, seed 1, 12 s each
//	go run ./bench -workload serve-point -seed 7     one workload
//	go run ./bench -workload serve-scan -trace 1     its traced run
//	go run ./bench -compare A.jsonl B.jsonl          two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// logw receives progress and diagnostics; results go to standard output.
var logw io.Writer = os.Stderr

// environment is stamped into every result record.
type environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// stampEnvironment reads the environment once per process (it may ask git
// for the commit).
var stampEnvironment = sync.OnceValue(readEnvironment)

func readEnvironment() environment {
	env := environment{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if env.Commit == "unknown" {
		// A checkout without VCS stamping (go run, exported trees): ask git,
		// and stay "unknown" when there is no repository either.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	return env
}

// record is one line of a result file.
type record struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	SegmentSecs float64     `json:"segment_seconds"`
	Trace       bool        `json:"trace"`
	Time        string      `json:"time"`
	Env         environment `json:"env"`
	runResult
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 12, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file, instead of end-to-end metrics")
		out      = flag.String("out", filepath.Join("bench", "out", "runs.jsonl"), "result file to append to (empty = none)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds must be in 1..60"))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	env := stampEnvironment()
	allCorrect := true
	for _, name := range names {
		s, ok := specByName(name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", ")))
		}
		// The host this was written for has two cores; a generator that
		// oversubscribes them measures its own scheduling.
		if gens := s.generators(); gens > env.NumCPU {
			fatal(fmt.Errorf("%s needs %d generator goroutines but the host has %d CPUs", name, gens, env.NumCPU))
		}
		var res *runResult
		var err error
		dur := time.Duration(*seconds) * time.Second
		if *trace != 0 {
			res, err = runTraced(s, *seed, dur, fullScale, filepath.Join("bench", "out"))
		} else {
			res, err = runWorkload(s, *seed, dur, fullScale)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		rec := record{
			Workload: name, Seed: *seed, Seconds: *seconds,
			SegmentSecs: float64(*seconds) / segments, Trace: *trace != 0,
			Time: time.Now().UTC().Format(time.RFC3339), Env: env, runResult: *res,
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		report(os.Stdout, rec)
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the run for a reader, then — as the last line — the result
// object of the benchmark contract.
func report(w io.Writer, rec record) {
	kind := "end-to-end"
	if rec.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %d s  %s\n", rec.Workload, rec.Seed, rec.Seconds, kind)
	fmt.Fprintf(w, "   %s/%s, %s, %d CPUs, GOMAXPROCS %d, %s, commit %s\n",
		rec.Env.GOOS, rec.Env.GOARCH, rec.Env.CPU, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.Commit)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "   %-34s %16.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range rec.notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintf(w, "   attempted %d, failed %d, correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	line, err := json.Marshal(rec.runResult)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
