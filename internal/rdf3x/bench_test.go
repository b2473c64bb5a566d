package rdf3x

import (
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/engine"
)

func BenchmarkRDF3XEvaluateChain(b *testing.B) {
	st, _ := datagen.Generate(datagen.Config{Triples: 20000, Seed: 1})
	e := New(st)
	p := cq.NewParser(st.Dict())
	q := p.MustParseQuery(
		"q(X, Z) :- t(X, " + datagen.PropName(0) + ", Y), t(Y, " + datagen.PropName(1) + ", Z)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRDF3XVersusINLJ(b *testing.B) {
	// Head-to-head with the triple-table evaluator on the same query: the
	// Figure 8 comparison in microbench form.
	st, _ := datagen.Generate(datagen.Config{Triples: 20000, Seed: 1})
	e := New(st)
	p := cq.NewParser(st.Dict())
	q := p.MustParseQuery(
		"q(X) :- t(X, rdf:type, " + datagen.ClassName(1) + "), t(X, " + datagen.PropName(0) + ", Y)")
	b.Run("rdf3x", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Evaluate(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("triple-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Materialize(st, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRDF3XBulkLoad(b *testing.B) {
	st, _ := datagen.Generate(datagen.Config{Triples: 20000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if New(st).Len() != st.Len() {
			b.Fatal("load lost triples")
		}
	}
}
