package core

import (
	"testing"

	"rdfviews/internal/cq"
)

func benchState(b *testing.B) (*State, *Ctx, []*cq.Query) {
	b.Helper()
	_, p, _ := paintersFixture(b)
	var queries []*cq.Query
	for i := 0; i < 3; i++ {
		queries = append(queries, p.MustParseQuery(
			"q(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)"))
		p.ResetNames()
	}
	s0, ctx, err := InitialState(queries)
	if err != nil {
		b.Fatal(err)
	}
	return s0, ctx, queries
}

func BenchmarkApplySC(b *testing.B) {
	s0, ctx, _ := benchState(b)
	var vid = s0.SortedViews()[0].ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ctx.ApplySC(s0, vid, 0, 2) == nil {
			b.Fatal("SC failed")
		}
	}
}

func BenchmarkApplyVB(b *testing.B) {
	s0, ctx, _ := benchState(b)
	var vid = s0.SortedViews()[0].ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ctx.ApplyVB(s0, vid, 0b011, 0b110) == nil {
			b.Fatal("VB failed")
		}
	}
}

func BenchmarkAVFClose(b *testing.B) {
	s0, ctx, _ := benchState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fused := ctx.AVFClose(s0, nil)
		if fused.NumViews() != 1 {
			b.Fatal("fusion incomplete")
		}
	}
}

// BenchmarkDFSSearch runs the default strategy to a fixed exploration budget
// (MaxStates, never a timeout) over a generated 6-query workload and reports
// the states created per second.
func BenchmarkDFSSearch(b *testing.B) {
	f := newSearchFixture(b, 6, 4, 3)
	const budget = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s0, ctx, est := f.start(b, "none")
		res, err := Search(s0, ctx, Options{Strategy: DFS, AVF: true, STV: true, MaxStates: budget, Estimator: est})
		if err != nil {
			b.Fatal(err)
		}
		if res.Counters.Created != budget {
			b.Fatalf("created %d states, want the budget of %d", res.Counters.Created, budget)
		}
	}
	b.ReportMetric(float64(budget)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
}
