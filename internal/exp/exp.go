// Package exp is the benchmark harness regenerating every table and figure
// of the paper's experimental evaluation (Section 6). Each experiment
// returns structured rows plus a text rendering; cmd/expdriver and the
// root-level benchmarks drive them.
//
// Scales: the paper ran 30-minute to 3-hour searches on a 35M-triple Barton
// dataset; the harness defaults to seconds-scale budgets over a synthetic
// Barton-like dataset, with a state budget standing in for the paper's JVM
// heap, and exposes every knob to run closer to paper scale.
package exp

import (
	"fmt"
	"strings"
	"time"

	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/stats"
	"rdfviews/internal/store"
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

// SmallScale finishes the full suite in roughly a minute; the shape of every
// result (who wins, by how much) already matches the paper at this scale.
func SmallScale() Scale {
	return Scale{Budget: 1500 * time.Millisecond, Triples: 20000, MaxStates: 150000, Seed: 2011}
}

// MediumScale takes tens of minutes.
func MediumScale() Scale {
	return Scale{Budget: 30 * time.Second, Triples: 200000, MaxStates: 2000000, Seed: 2011}
}

// testbed is the shared environment: the Barton-like dataset, its schema
// (both string-level and encoded), the post-reformulation statistics of the
// two — they never move, so every series reads one provider — and vocabulary
// slices for the workload generators.
type testbed struct {
	st        *store.Store
	rschema   *rdf.Schema
	schema    *reason.Schema
	postStats *stats.ReformulatedStats
	props     []string
	consts    []string
}

func newTestbed(sc Scale) *testbed {
	st, rschema := datagen.Generate(datagen.Config{Triples: sc.Triples, Seed: sc.Seed})
	tb := &testbed{st: st, rschema: rschema, schema: reason.NewSchema(rschema, st.Dict())}
	tb.postStats = stats.NewReformulatedStats(st, tb.schema)
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

// estimator builds the plain-store estimator.
func (tb *testbed) estimator() *cost.Estimator {
	return cost.NewEstimator(stats.NewStoreStats(tb.st), cost.DefaultWeights())
}

// postEstimator builds a post-reformulation estimator: reformulated
// statistics over the non-saturated store.
func (tb *testbed) postEstimator() *cost.Estimator {
	return cost.NewEstimator(tb.postStats, cost.DefaultWeights())
}

// genWorkload draws a free-standing workload over the testbed vocabulary.
func (tb *testbed) genWorkload(n, atoms int, shape workload.Shape, comm workload.Commonality, seed int64) []*cq.Query {
	return workload.Generate(tb.st.Dict(), workload.Spec{
		Queries:       n,
		AtomsPerQuery: atoms,
		Shape:         shape,
		Commonality:   comm,
		PropVocab:     tb.props,
		ConstVocab:    tb.consts,
		Seed:          seed,
	})
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
