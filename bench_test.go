package rdfviews

// Ablation benches: how much of the search comes from the strategy and how
// much from the heuristics. The paper's tables and figures have their
// benchmarks in internal/exp.

import (
	"testing"
	"time"

	"rdfviews/internal/workload"
)

// benchSearch selects views for a fixed star workload over the painters
// data, with explicit triples only and the paper's fixed cm = 0.5.
func benchSearch(b *testing.B, opts Options) {
	b.Helper()
	db := NewDatabase()
	db.MustLoadGraphString(paintersData)
	w := &Workload{Queries: workload.Generate(db.Store().Dict(), workload.Spec{
		Queries: 3, AtomsPerQuery: 4, Shape: workload.Star, Seed: 5,
	})}
	opts.Reasoning = ReasoningNone
	opts.Weights = Weights{CM: 0.5}
	opts.Timeout = 150 * time.Millisecond
	for i := 0; i < b.N; i++ {
		if _, err := db.Recommend(w, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDFSPlain: DFS without heuristics.
func BenchmarkAblationDFSPlain(b *testing.B) {
	benchSearch(b, Options{Strategy: StrategyDFS, DisableAVF: true, DisableSTV: true})
}

// BenchmarkAblationDFSAVFSTV: DFS with the paper's heuristics; compare
// states/op and ns/op against the plain run.
func BenchmarkAblationDFSAVFSTV(b *testing.B) {
	benchSearch(b, Options{Strategy: StrategyDFS})
}

// BenchmarkAblationGSTR: the greedy strategy under the same budget.
func BenchmarkAblationGSTR(b *testing.B) {
	benchSearch(b, Options{Strategy: StrategyGSTR})
}
