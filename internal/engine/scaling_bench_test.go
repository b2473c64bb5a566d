package engine

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkMulticoreScaling is the env-gated multicore target: it measures
// the DOP/shard scaling that single-core containers cannot. It skips unless
// GOMAXPROCS > 1 — run it on a multicore host with e.g.
// GOMAXPROCS=4 go test ./internal/engine/ -bench MulticoreScaling.
func BenchmarkMulticoreScaling(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skipf("GOMAXPROCS=%d: multicore scaling needs >1 core (set GOMAXPROCS on a multicore host)", runtime.GOMAXPROCS(0))
	}
	oldMin := parallelScanMinRows
	parallelScanMinRows = 0
	defer func() { parallelScanMinRows = oldMin }()
	for _, k := range []int{1, 2, 4} {
		st, p := benchShardedData(b, k)
		q := p.MustParseQuery("q(X, P, Y) :- t(X, P, Y)")
		plan, err := PlanQuery(st, q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("scan/shards=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Eval(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	views, union := rewriteBenchFixture(b)
	resolve := MapResolver(views)
	for _, dop := range []int{1, 2, 4} {
		opts := ExecOptions{DOP: dop}
		b.Run(fmt.Sprintf("rewrite/dop=%d", dop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExecuteWithOptions(union, resolve, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
