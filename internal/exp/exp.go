// Package exp is the benchmark harness regenerating every table and figure
// of the paper's experimental evaluation (Section 6). Each experiment
// returns structured rows plus a text rendering; cmd/expdriver and the
// package's benchmarks drive them. Every figure selects views through the
// library's public entry point, Database.Recommend, so it measures the
// recommendation a user gets.
//
// Scales: the paper ran 30-minute to 3-hour searches on a 35M-triple Barton
// dataset; the harness defaults to seconds-scale budgets over a synthetic
// Barton-like dataset, with a state budget standing in for the paper's JVM
// heap, and exposes every knob to run closer to paper scale.
package exp

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"rdfviews"
	"rdfviews/internal/datagen"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/workload"
)

// Scale bundles the experiment-size knobs.
type Scale struct {
	// Budget is the stoptime per search.
	Budget time.Duration
	// Triples sizes the synthetic dataset.
	Triples int
	// MaxStates models the memory budget (JVM heap in the paper).
	MaxStates int
	// Seed drives all generators.
	Seed int64
}

// SmallScale finishes the full suite in roughly a minute. Most findings
// keep their shape at this scale (who wins, and roughly by how much), but
// not all: Figure 6's DFS reaches neither the paper's ≈0.99 rcr nor its
// ≈3.2 atoms per view.
func SmallScale() Scale {
	return Scale{Budget: 1500 * time.Millisecond, Triples: 20000, MaxStates: 150000, Seed: 2011}
}

// MediumScale takes tens of minutes.
func MediumScale() Scale {
	return Scale{Budget: 30 * time.Second, Triples: 200000, MaxStates: 2000000, Seed: 2011}
}

// plain is the objective of Figures 4–6 and the ablation: explicit triples
// only, and the paper's fixed cm = 0.5 instead of a calibrated one.
func (sc Scale) plain(strategy rdfviews.Strategy, avf, stv bool) rdfviews.Options {
	return rdfviews.Options{
		Strategy:   strategy,
		Reasoning:  rdfviews.ReasoningNone,
		DisableAVF: !avf,
		DisableSTV: !stv,
		Timeout:    sc.Budget,
		MaxStates:  sc.MaxStates,
		Weights:    rdfviews.Weights{CM: 0.5},
	}
}

// reasoned is the objective of Figures 7 and 8: DFS-AVF-STV under a
// reasoning mode, with cm calibrated on the initial state.
func (sc Scale) reasoned(mode rdfviews.Reasoning) rdfviews.Options {
	return rdfviews.Options{Reasoning: mode, Timeout: sc.Budget, MaxStates: sc.MaxStates}
}

// testbed is the shared environment: a database holding the Barton-like
// dataset and its schema, the schema encoded over the database's dictionary
// (Table 3 reformulates with it, Figure 8 saturates with it), and vocabulary
// slices for the workload generators.
type testbed struct {
	db     *rdfviews.Database
	schema *reason.Schema
	props  []string
	consts []string
}

func newTestbed(sc Scale) *testbed {
	db := rdfviews.NewDatabase()
	var nt bytes.Buffer
	rschema := datagen.GenerateInto(db.Store(), datagen.Config{Triples: sc.Triples, Seed: sc.Seed})
	if err := rdf.Write(&nt, rschema.Graph()); err != nil {
		panic(err)
	}
	if _, err := db.LoadSchema(&nt); err != nil {
		panic(err) // the generator writes IRI-only RDFS statements
	}
	tb := &testbed{db: db, schema: reason.NewSchema(db.Schema(), db.Store().Dict())}
	for i := 0; i < 16; i++ {
		tb.props = append(tb.props, datagen.PropName(i))
	}
	tb.props = append(tb.props, rdf.RDFType)
	for i := 0; i < 24; i++ {
		tb.consts = append(tb.consts, datagen.ResourceName(i))
	}
	for i := 0; i < 8; i++ {
		tb.consts = append(tb.consts, datagen.ClassName(i))
	}
	return tb
}

// genWorkload draws a free-standing workload over the testbed vocabulary.
func (tb *testbed) genWorkload(n, atoms int, shape workload.Shape, comm workload.Commonality, seed int64) *rdfviews.Workload {
	return &rdfviews.Workload{Queries: workload.Generate(tb.db.Store().Dict(), workload.Spec{
		Queries:       n,
		AtomsPerQuery: atoms,
		Shape:         shape,
		Commonality:   comm,
		PropVocab:     tb.props,
		ConstVocab:    tb.consts,
		Seed:          seed,
	})}
}

// renderTable aligns rows of columns into a text table.
func renderTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func sci(v float64) string { return fmt.Sprintf("%.3g", v) }
