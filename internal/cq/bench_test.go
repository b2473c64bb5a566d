package cq

import (
	"math/rand"
	"testing"
)

func benchQueries(b *testing.B, atoms int) []*Query {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	p := newTestParser()
	qs := make([]*Query, 32)
	for i := range qs {
		qs[i] = randomQuery(rng, p, atoms)
	}
	return qs
}

func BenchmarkMinimize(b *testing.B) {
	qs := benchQueries(b, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = qs[i%len(qs)].Minimize()
	}
}

func BenchmarkEquivalent(b *testing.B) {
	qs := benchQueries(b, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		_ = Equivalent(q, q)
	}
}

func BenchmarkBodyIsomorphism(b *testing.B) {
	qs := benchQueries(b, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		// Rename to force a non-trivial match.
		m := map[Term]Term{}
		for _, v := range q.Vars() {
			m[v] = Var(v.VarNum() + 10000)
		}
		_ = BodyIsomorphism(q, q.RenameVars(m))
	}
}

func BenchmarkParseQuery(b *testing.B) {
	p := newTestParser()
	const s = "q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ResetNames()
		if _, err := p.ParseQuery(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseSPARQL(b *testing.B) {
	p := newTestParser()
	const s = `SELECT ?x ?z WHERE { ?x hasPainted starryNight . ?x isParentOf ?y . ?y hasPainted ?z }`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ResetNames()
		if _, err := p.ParseSPARQL(s); err != nil {
			b.Fatal(err)
		}
	}
}
