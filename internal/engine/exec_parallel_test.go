package engine

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// forceParallelRewrite lowers the parallel-operator threshold for the
// duration of a test so small fixtures still exercise the parallel executor.
func forceParallelRewrite(t testing.TB) {
	t.Helper()
	old := parallelRewriteMinRows
	parallelRewriteMinRows = 0
	t.Cleanup(func() { parallelRewriteMinRows = old })
}

// randomExtent builds an n-row extent with values drawn from a bounded
// domain, so joins match and unions overlap.
func randomExtent(rng *rand.Rand, cols []cq.Term, n, domain int) *Relation {
	r := NewRelation(cols)
	for i := 0; i < n; i++ {
		row := make(Row, len(cols))
		for j := range row {
			row[j] = dict.ID(rng.Intn(domain) + 1)
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// sameRows asserts two relations hold exactly the same rows with the same
// multiplicities (order-insensitive) — stronger than EqualAsSet, because a
// parallel operator must reproduce the serial operator's multiset, not just
// its distinct rows.
func sameRows(t *testing.T, label string, serial, parallel *Relation) {
	t.Helper()
	if serial.Len() != parallel.Len() {
		t.Fatalf("%s: serial %d rows, parallel %d rows", label, serial.Len(), parallel.Len())
	}
	a := &Relation{Cols: serial.Cols, Rows: append([]Row(nil), serial.Rows...)}
	b := &Relation{Cols: parallel.Cols, Rows: append([]Row(nil), parallel.Rows...)}
	a.SortRows()
	b.SortRows()
	for i := range a.Rows {
		if !rowsEqual(a.Rows[i], b.Rows[i]) {
			t.Fatalf("%s: row %d differs: %v vs %v", label, i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestParallelExecuteMatchesSerial is the serial-vs-parallel differential:
// every plan shape the rewriting executor parallelizes (partitioned hash
// joins over split and unsplittable probes, concurrent union branches,
// exchanged filter scans under projections) must produce exactly the serial
// row multiset at every DOP.
func TestParallelExecuteMatchesSerial(t *testing.T) {
	forceParallelRewrite(t)
	views, plans := rewriteMatrix(7)
	for name, plan := range plans {
		serial, err := execute(plan, MapResolver(views), ExecOptions{})
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		for _, dop := range []int{2, 4, 8} {
			par, err := execute(plan, MapResolver(views), ExecOptions{DOP: dop})
			if err != nil {
				t.Fatalf("%s dop=%d: %v", name, dop, err)
			}
			sameRows(t, name, serial, par)
		}
	}
}

// TestParallelJoinEmptyProbeSkipsBuild extends the empty-probe fast path to
// the partitioned parallel join: a zero-row probe must not drain the build
// side or spawn probe workers.
func TestParallelJoinEmptyProbeSkipsBuild(t *testing.T) {
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	empty := &viewScanOp{labels: []cq.Term{x1, x2}}
	counted := &countingRel{in: &viewScanOp{rows: bigExtent([]cq.Term{x2, x3}, 2000).Rows, labels: []cq.Term{x2, x3}}}
	shape, err := joinShape(empty.cols(), counted.cols(), nil)
	if err != nil {
		t.Fatal(err)
	}
	j := &parallelHashJoinOp{hashJoin: newHashJoin(empty, counted, shape, false, 0, 0, 0, nil), dop: 4}
	if _, ok := j.nextBatch(); ok {
		t.Fatal("parallel join over empty probe returned a row")
	}
	if counted.calls != 0 {
		t.Fatalf("empty probe still drained the build side (%d nextBatch calls)", counted.calls)
	}
	j.close()
}

// TestParallelUnionSharedDedup pins cross-branch deduplication under
// concurrent branch evaluation: identical branches collapse to one copy of
// each row.
func TestParallelUnionSharedDedup(t *testing.T) {
	forceParallelRewrite(t)
	x1, x2 := cq.Var(1), cq.Var(2)
	ext := bigExtent([]cq.Term{x1, x2}, 500)
	views := map[algebra.ViewID]*Relation{1: ext}
	u := algebra.NewUnion(
		algebra.NewScan(1, []cq.Term{x1, x2}),
		algebra.NewScan(1, []cq.Term{x1, x2}),
		algebra.NewScan(1, []cq.Term{x1, x2}),
	)
	r, err := execute(u, MapResolver(views), ExecOptions{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != ext.Len() {
		t.Fatalf("parallel union of identical branches = %d rows, want %d", r.Len(), ext.Len())
	}
}

// waitGoroutines fails the test unless the goroutine count returns to base:
// close() on a parallel operator returns only after its workers have exited,
// so at most the channel-closing helpers are still winding down.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the execution", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelExecuteAbandonedPipeline exercises close(): compiling and
// partially draining a parallel plan, then closing it, must release every
// worker.
func TestParallelExecuteAbandonedPipeline(t *testing.T) {
	forceParallelRewrite(t)
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(11))
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	views := map[algebra.ViewID]*Relation{
		1: randomExtent(rng, []cq.Term{x1, x2}, 2000, 50),
		2: randomExtent(rng, []cq.Term{x2, x3}, 2000, 50),
	}
	plan := algebra.NewUnion(
		algebra.NewJoin(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3})),
		algebra.NewJoin(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3})),
	)
	root, _, err := compileRel(plan, MapResolver(views).extent, ExecOptions{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // pull a couple of batches, then walk away
		if _, ok := root.nextBatch(); !ok {
			break
		}
	}
	closeOp(root)
	// Closing twice is safe, as is closing a never-started pipeline.
	closeOp(root)
	fresh, _, err := compileRel(plan, MapResolver(views).extent, ExecOptions{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	closeOp(fresh)
	waitGoroutines(t, base)
}

// TestDescribeParallelAnnotations pins the explain surface of the parallel
// executor: at DOP > 1 eligible hash joins and unions render dop=N, and the
// join's cost-chosen build side is rendered either way.
func TestDescribeParallelAnnotations(t *testing.T) {
	forceParallelRewrite(t)
	x1, x2, x3 := cq.Var(1), cq.Var(2), cq.Var(3)
	card := func(id algebra.ViewID) float64 { return 2000 }
	u := algebra.NewUnion(
		algebra.NewJoin(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3})),
		algebra.NewJoin(algebra.NewScan(3, []cq.Term{x1, x2}), algebra.NewScan(2, []cq.Term{x2, x3})),
	)
	node, err := DescribePlan(u, card, ExecOptions{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := node.String()
	if node.DOP != 2 { // two branches cap the union's parallelism
		t.Fatalf("union DOP = %d, want 2:\n%s", node.DOP, out)
	}
	for _, child := range node.Children {
		if child.DOP != 4 {
			t.Fatalf("join DOP = %d, want 4:\n%s", child.DOP, out)
		}
		if child.Build == "" {
			t.Fatalf("join missing build side:\n%s", out)
		}
	}
	if !strings.Contains(out, "dop=4") || !strings.Contains(out, "dop=2") {
		t.Fatalf("missing dop annotations:\n%s", out)
	}
	serial, err := DescribePlan(u, card, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(serial.String(), "dop=") {
		t.Fatalf("serial describe should not carry dop annotations:\n%s", serial)
	}

	// A deduplicating projection over a large filtered extent scan fans the
	// filter out through an exchange; its Filter node must say so.
	proj := algebra.NewProject(
		algebra.NewSelect(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.Cond{Left: x1, Right: x2}),
		[]cq.Term{x2},
	)
	node, err = DescribePlan(proj, card, ExecOptions{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if node.Children[0].DOP != 4 {
		t.Fatalf("exchanged filter under projection should render dop=4:\n%s", node)
	}
}
