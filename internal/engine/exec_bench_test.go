package engine

import (
	"fmt"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
)

// rewriteBenchFixture materializes atomic predicate views from the standard
// 20k-triple dataset in a 4-shard store — the deployment shape of the
// answering tier: workload queries run against view extents only. It returns
// the extents plus the two benchmark plans: a 4-branch union of hash joins
// (one branch per predicate view, all joining the shared second-hop view on
// Y) and the branch join reused by the build-side benchmark.
func rewriteBenchFixture(b testing.TB) (map[algebra.ViewID]*Relation, *algebra.Union) {
	b.Helper()
	st, p := benchShardedData(b, 4)
	views := make(map[algebra.ViewID]*Relation)
	x, y, z := cq.Var(1), cq.Var(2), cq.Var(3)
	for i := 0; i < 4; i++ {
		q := p.MustParseQuery(fmt.Sprintf("q(X, Y) :- t(X, %s, Y)", datagen.PropName(i)))
		p.ResetNames()
		rel, err := Materialize(st, q)
		if err != nil {
			b.Fatal(err)
		}
		rel.Cols = []cq.Term{x, y}
		views[algebra.ViewID(i+1)] = rel
	}
	shared := p.MustParseQuery(fmt.Sprintf("q(Y, Z) :- t(Y, %s, Z)", datagen.PropName(4)))
	p.ResetNames()
	rel, err := Materialize(st, shared)
	if err != nil {
		b.Fatal(err)
	}
	rel.Cols = []cq.Term{y, z}
	views[9] = rel

	branches := make([]algebra.Plan, 4)
	for i := range branches {
		branches[i] = algebra.NewJoin(
			algebra.NewScan(algebra.ViewID(i+1), []cq.Term{x, y}),
			algebra.NewScan(9, []cq.Term{y, z}),
		)
	}
	return views, algebra.NewUnion(branches...)
}

// BenchmarkRewriteExecSerial is the serial baseline for the multi-branch
// union rewriting: four hash-join branches evaluated one after another with
// one consumer-side dedup set.
func BenchmarkRewriteExecSerial(b *testing.B) {
	views, union := rewriteBenchFixture(b)
	resolve := MapResolver(views)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(union, resolve); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewriteExecParallel runs the same union rewriting with the
// parallel executor at increasing DOP: union branches evaluate concurrently
// and each branch's hash join runs with a partitioned parallel build and
// fanned-out probe streams. Row sets are verified identical to serial before
// timing; wall-clock scaling is bounded by GOMAXPROCS.
func BenchmarkRewriteExecParallel(b *testing.B) {
	views, union := rewriteBenchFixture(b)
	resolve := MapResolver(views)
	serial, err := Execute(union, resolve)
	if err != nil {
		b.Fatal(err)
	}
	for _, dop := range []int{2, 4, 8} {
		opts := ExecOptions{DOP: dop}
		par, err := ExecuteWithOptions(union, resolve, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !par.EqualAsSet(serial) || par.Len() != serial.Len() {
			b.Fatalf("dop=%d disagrees with serial: %d vs %d rows", dop, par.Len(), serial.Len())
		}
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExecuteWithOptions(union, resolve, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// buildSideFixture is a join whose left input is a small slice of an extent
// and whose right input is a full extent ~20× larger: the cost-chosen
// executor builds the small left side and streams the large extent through
// as the probe.
func buildSideFixture(views map[algebra.ViewID]*Relation) (map[algebra.ViewID]*Relation, *algebra.Join) {
	x, y := cq.Var(1), cq.Var(2)
	small := &Relation{Cols: []cq.Term{x, y}, Rows: views[1].Rows[:min(100, views[1].Len())]}
	return map[algebra.ViewID]*Relation{1: small, 2: views[9]}, algebra.NewJoin(
		algebra.NewScan(1, []cq.Term{x, y}),
		algebra.NewScan(2, []cq.Term{y, cq.Var(3)}),
	)
}

// BenchmarkRewriteExecBuildSide times the cost-chosen build side on
// buildSideFixture; its answers are checked against the reference
// interpreter in TestBatchExecuteMatchesRef.
func BenchmarkRewriteExecBuildSide(b *testing.B) {
	views, _ := rewriteBenchFixture(b)
	sviews, plan := buildSideFixture(views)
	resolve := MapResolver(sviews)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(plan, resolve); err != nil {
			b.Fatal(err)
		}
	}
}
