// Command expdriver regenerates the tables and figures of the paper's
// experimental evaluation (Section 6) as text tables, and generates the
// inputs they run on: synthetic datasets and query workloads.
//
// Usage:
//
//	expdriver -exp all                     # everything at the small scale
//	expdriver -exp fig6 -budget 30s -triples 200000 -sizes 5,10,20,50,100,200
//	expdriver -exp fig7 -csv               # emit plot-ready CSV timelines
//	expdriver data -triples 50000 -out data.nt -schema-out schema.nt
//	expdriver data -triples 1000           # data and schema both to stdout
//	expdriver queries -n 10 -atoms 5 -shape star -commonality high
//	expdriver queries -n 10 -atoms 5 -data data.nt   # satisfiable on the dataset
//
// Experiments: table2, fig4, fig5, fig6, table3 (alias fig7), fig7, fig8,
// ablation, all. `data` emits a synthetic Barton-like dataset and its RDF
// Schema in N-Triples; `queries` emits a workload of controllable size, shape
// and commonality (the paper's first workload generator), or one satisfiable
// on a dataset (the second). A malformed or unknown flag value exits with
// status 2, a failed run with status 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/dict"
	"rdfviews/internal/exp"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
	"rdfviews/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks a command line its flag set rejected (and reported).
var errUsage = errors.New("usage")

// run executes one invocation — bare flags mean the experiments — and
// returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	name, cmd := "exp", runExp
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
		switch name {
		case "data":
			cmd = runData
		case "queries":
			cmd = runQueries
		default:
			fmt.Fprintf(stderr, "expdriver: unknown subcommand %q (want data or queries, or -exp flags)\n", name)
			return 2
		}
	}
	switch err := cmd(args, stdout, stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintf(stderr, "expdriver %s: %v\n", name, err)
		return 1
	}
}

// newFlags starts subcommand name's flag set with the flags the subcommands
// share, -seed and -triples, at that subcommand's defaults; triples < 0
// leaves -triples out.
func newFlags(name string, stderr io.Writer, seed int64, triples int) (*flag.FlagSet, *int64, *int) {
	fs := flag.NewFlagSet("expdriver "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	s, t := fs.Int64("seed", seed, "random seed"), new(int)
	if triples >= 0 {
		fs.IntVar(t, "triples", triples, "synthetic dataset size in triples (-exp: 0 = the scale preset's)")
	}
	return fs, s, t
}

// parse parses args into fs, which reports a rejected command line itself;
// -h returns flag.ErrHelp, so nothing runs.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// choice declares a flag whose value must be one of names (|-separated),
// mapped to values[i]; the flag set rejects any other value.
func choice[T any](fs *flag.FlagSet, flagName, names string, values ...T) *T {
	keys := strings.Split(names, "|")
	v := &values[0]
	fs.Func(flagName, names+" (default "+keys[0]+")", func(s string) error {
		for i, k := range keys {
			if s == k {
				*v = values[i]
				return nil
			}
		}
		return fmt.Errorf("want %s", names)
	})
	return v
}

func runExp(args []string, stdout, stderr io.Writer) error {
	fs, seed, triples := newFlags("exp", stderr, 2011, 0)
	var (
		which   = fs.String("exp", "all", "experiment: table2|fig4|fig5|fig6|fig7|table3|fig8|ablation|all")
		budget  = fs.Duration("budget", 0, "search time budget per run (default: scale preset)")
		states  = fs.Int("maxstates", 0, "state budget standing in for memory (default: preset)")
		scale   = choice(fs, "scale", "small|medium", exp.SmallScale, exp.MediumScale)
		atoms   = fs.Int("atoms", 0, "fig5 atoms per query (default 4) / fig6 atoms (default 10)")
		repeats = fs.Int("repeats", 3, "fig8 timing repetitions")
		csv     = fs.Bool("csv", false, "fig7: also print CSV timelines")
		sizes   []int
	)
	fs.Func("sizes", "fig6 workload sizes, comma-separated (default 5,10,20,50,100,200)", func(s string) error {
		for _, f := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			sizes = append(sizes, n)
		}
		return nil
	})
	if err := parse(fs, args); err != nil {
		return err
	}
	sc := (*scale)()
	if *budget > 0 {
		sc.Budget = *budget
	}
	if *triples > 0 {
		sc.Triples = *triples
	}
	if *states > 0 {
		sc.MaxStates = *states
	}
	sc.Seed = *seed

	names := []string{*which}
	if *which == "all" {
		names = []string{"table2", "fig4", "fig5", "fig6", "fig7", "fig8", "ablation"}
	}
	for _, name := range names {
		start := time.Now()
		var err error
		switch name {
		case "table2":
			fmt.Fprintln(stdout, exp.Table2())
		case "fig4":
			fmt.Fprintln(stdout, exp.Figure4(sc).String())
		case "fig5":
			fmt.Fprintln(stdout, exp.Figure5(sc, *atoms).String())
		case "fig6":
			fmt.Fprintln(stdout, exp.Figure6(sc, sizes, *atoms).String())
		case "fig7", "table3":
			var res exp.ReformResult
			if res, err = exp.ReformExperiment(sc); err == nil {
				fmt.Fprintln(stdout, res.String())
				if *csv {
					for _, s := range res.Series {
						fmt.Fprintf(stdout, "# timeline %s %s\n%s\n", s.Workload, s.Mode, s.TimelineCSV())
					}
				}
			}
		case "fig8":
			var res exp.Fig8Result
			if res, err = exp.Figure8(sc, *repeats); err == nil {
				fmt.Fprintln(stdout, res.String())
			}
		case "ablation":
			fmt.Fprintln(stdout, exp.Ablation(sc, 0, *atoms).String())
		default:
			err = fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func runData(args []string, stdout, stderr io.Writer) error {
	fs, seed, triples := newFlags("data", stderr, 1, 50000)
	out := fs.String("out", "", "data output file (default stdout)")
	schemaOut := fs.String("schema-out", "", "schema output file (default stdout)")
	if err := parse(fs, args); err != nil {
		return err
	}
	st, schema := datagen.Generate(datagen.Config{Triples: *triples, Seed: *seed})
	if err := writeGraph(stdout, *out, st.Graph()); err != nil {
		return err
	}
	if err := writeGraph(stdout, *schemaOut, schema.Graph()); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "expdriver data: %d triples, %d schema statements\n", st.Len(), schema.Len())
	return nil
}

// writeGraph writes g as N-Triples to the file at path, or to stdout when
// path is empty.
func writeGraph(stdout io.Writer, path string, g rdf.Graph) error {
	if path == "" {
		return rdf.Write(stdout, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rdf.Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runQueries(args []string, stdout, stderr io.Writer) error {
	fs, seed, _ := newFlags("queries", stderr, 1, -1)
	var (
		n     = fs.Int("n", 5, "number of queries")
		atoms = fs.Int("atoms", 5, "atoms per query")
		shape = choice(fs, "shape", "star|chain|cycle|sparse|dense|mixed", workload.Star, workload.Chain,
			workload.Cycle, workload.RandomSparse, workload.RandomDense, workload.Mixed)
		comm = choice(fs, "commonality", "low|high", workload.Low, workload.High)
		data = fs.String("data", "", "dataset for satisfiable generation (optional)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	spec := workload.Spec{Queries: *n, AtomsPerQuery: *atoms, Shape: *shape, Commonality: *comm, Seed: *seed}
	var queries []*cq.Query
	var d *dict.Dictionary
	if *data != "" {
		f, err := os.Open(*data)
		if err != nil {
			return err
		}
		g, err := rdf.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		st := store.New()
		if _, err := st.AddGraph(g); err != nil {
			return err
		}
		d = st.Dict()
		if queries, err = workload.GenerateSatisfiable(st, spec); err != nil {
			return err
		}
	} else {
		d = dict.New()
		queries = workload.Generate(d, spec)
	}
	for _, q := range queries {
		fmt.Fprintln(stdout, q.Format(d))
	}
	return nil
}
