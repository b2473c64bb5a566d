package maintain

// Differential test harness for view maintenance: randomized interleavings
// of inserts, deletes, queries and flushes run through a synchronous world
// and an asynchronous one. The oracle is recomputation, independent of the
// fold both worlds share: every extent must equal engine.MaterializeUCQ over
// its world's own store — in the synchronous world after every op, in the
// asynchronous world after every Flush. Failures shrink to a minimal op log
// by greedy delta debugging over the recorded operations.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

type dOpKind int

const (
	dInsert dOpKind = iota
	dDelete
	dQuery
	dFlush
)

// dOp is one recorded operation of an interleaving. Triples are kept in
// decoded form so each world encodes them with its own dictionary.
type dOp struct {
	kind dOpKind
	tr   rdf.Triple
}

func (o dOp) String() string {
	switch o.kind {
	case dInsert:
		return fmt.Sprintf("insert %v %v %v", o.tr.S.Value, o.tr.P.Value, o.tr.O.Value)
	case dDelete:
		return fmt.Sprintf("delete %v %v %v", o.tr.S.Value, o.tr.P.Value, o.tr.O.Value)
	case dQuery:
		return "query"
	default:
		return "flush"
	}
}

func formatOps(ops []dOp) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, "\n  ")
}

const diffSeedData = `
a isParentOf b .
b hasPainted w1 .
a p b .
a q b .
c p d .
`

// diffViews are the views both differential tests maintain: a join, a
// same-object conjunction, a plain scan, and a view of three members — the
// shape of a reformulated view. Its first two members share their
// isParentOf atom; its third has a constant in the head, and derives rows
// the first also derives, so a delete often leaves a row another member
// still supports.
func diffViews(st *store.Store) map[algebra.ViewID]*cq.UCQ {
	p := cq.NewParser(st.Dict())
	views := map[algebra.ViewID]*cq.UCQ{}
	views[1] = union(p.MustParseQuery("q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)"))
	p.ResetNames()
	views[2] = union(p.MustParseQuery("q(X) :- t(X, p, Y), t(X, q, Y)"))
	p.ResetNames()
	views[3] = union(p.MustParseQuery("q(X, Y) :- t(X, p, Y)"))
	p.ResetNames()
	views[4] = union(
		p.MustParseQuery("q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)"),
		p.MustParseQuery("q(X, Z) :- t(X, isParentOf, Y), t(Y, p, Z)"),
		p.MustParseQuery("q(X, d) :- t(X, q, Y)"))
	return views
}

// diffCfg is the asynchronous world's shape: change-queue capacity and the
// refresher's batch bound.
type diffCfg struct{ queueDepth, batchMax int }

// newDiffWorld builds one independent world: a fresh store with the seed
// data and a maintainer over diffViews with the given queue depth (0 is
// synchronous) and, when asynchronous, the given batch bound.
func newDiffWorld(queueDepth, batchMax int) (*store.Store, *Maintainer, map[algebra.ViewID]*cq.UCQ, error) {
	st := store.New()
	st.MustAddGraph(rdf.MustParse(diffSeedData))
	views := diffViews(st)
	m, err := New(st, views, queueDepth)
	if err == nil && m.rf != nil {
		m.rf.batchMax = batchMax // before the first enqueue, like holdDrain
	}
	return st, m, views, err
}

// decodedRows renders a relation as sorted decoded strings for failure
// reports.
func decodedRows(st *store.Store, rel *engine.Relation) []string {
	out := make([]string, 0, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		row := rel.Row(i, nil)
		parts := make([]string, len(row))
		for i, id := range row {
			parts[i] = st.Dict().MustDecode(id).Value
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

// matchesRecompute checks every extent of a world against a from-scratch
// materialization over that world's store.
func matchesRecompute(st *store.Store, m *Maintainer, views map[algebra.ViewID]*cq.UCQ) error {
	for id, v := range views {
		want, err := engine.MaterializeUCQ(st, v)
		if err != nil {
			return err
		}
		got, _ := m.Extent(id)
		if !got.EqualAsSet(want) {
			return fmt.Errorf("view v%d diverged: maintained %v, recomputed %v (view %s)",
				int(id), decodedRows(st, got), decodedRows(st, want), v.Format(st.Dict()))
		}
	}
	return nil
}

// runDiff replays one op log through a synchronous and an asynchronous
// world, checking the synchronous one against recomputation after every op
// and the asynchronous one after every flush (and once more at the end). A
// non-nil error reports the first divergence.
func runDiff(ops []dOp, cfg diffCfg) error {
	stS, mS, views, err := newDiffWorld(0, 0)
	if err != nil {
		return err
	}
	stA, mA, _, err := newDiffWorld(cfg.queueDepth, cfg.batchMax)
	if err != nil {
		return err
	}
	defer mA.Close()

	checkAsync := func(step int) error {
		if lag := mA.Lag(); lag != 0 {
			return fmt.Errorf("step %d: lag %d after flush", step, lag)
		}
		if a, b := mA.AppliedEpoch(), mA.LatestEpoch(); a != b {
			return fmt.Errorf("step %d: applied epoch %d != latest %d after flush", step, a, b)
		}
		if err := matchesRecompute(stA, mA, views); err != nil {
			return fmt.Errorf("step %d async: %w", step, err)
		}
		return nil
	}

	for i, op := range ops {
		switch op.kind {
		case dInsert:
			if _, err := mS.Insert(stS.Encode(op.tr)); err != nil {
				return fmt.Errorf("step %d sync insert: %w", i, err)
			}
			if _, err := mA.Insert(stA.Encode(op.tr)); err != nil {
				return fmt.Errorf("step %d async insert: %w", i, err)
			}
		case dDelete:
			if _, err := mS.Delete(stS.Encode(op.tr)); err != nil {
				return fmt.Errorf("step %d sync delete: %w", i, err)
			}
			if _, err := mA.Delete(stA.Encode(op.tr)); err != nil {
				return fmt.Errorf("step %d async delete: %w", i, err)
			}
		case dQuery:
			// Stale reads are allowed mid-stream; the point is that a pinned
			// generation executes cleanly while the refresher churns.
			for id, v := range views {
				if _, err := execute(algebra.NewScan(id, v.Queries[0].Head), mA.Resolver()); err != nil {
					return fmt.Errorf("step %d query v%d: %w", i, int(id), err)
				}
			}
		case dFlush:
			if err := mA.Flush(); err != nil {
				return fmt.Errorf("step %d flush: %w", i, err)
			}
			if err := checkAsync(i); err != nil {
				return err
			}
		}
		if err := matchesRecompute(stS, mS, views); err != nil {
			return fmt.Errorf("step %d sync: %w", i, err)
		}
	}
	if err := mA.Flush(); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	return checkAsync(len(ops))
}

// genDiffOps draws a random interleaving over a small closed vocabulary, so
// inserts and deletes collide often enough to exercise rederivation, net-zero
// folds and batch splits.
func genDiffOps(rng *rand.Rand, n int) []dOp {
	subjects := []string{"a", "b", "c", "d"}
	props := []string{"p", "q", "isParentOf", "hasPainted"}
	randTriple := func() rdf.Triple {
		return rdf.T(
			subjects[rng.Intn(len(subjects))],
			props[rng.Intn(len(props))],
			subjects[rng.Intn(len(subjects))])
	}
	ops := make([]dOp, 0, n)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 4:
			ops = append(ops, dOp{kind: dInsert, tr: randTriple()})
		case r < 8:
			ops = append(ops, dOp{kind: dDelete, tr: randTriple()})
		case r == 8:
			ops = append(ops, dOp{kind: dQuery})
		default:
			ops = append(ops, dOp{kind: dFlush})
		}
	}
	return ops
}

// shrinkOps greedily drops ops while the log still fails, yielding a minimal
// (1-minimal) failing interleaving for the report.
func shrinkOps(ops []dOp, cfg diffCfg) []dOp {
	reduced := append([]dOp(nil), ops...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(reduced); i++ {
			cand := make([]dOp, 0, len(reduced)-1)
			cand = append(cand, reduced[:i]...)
			cand = append(cand, reduced[i+1:]...)
			if runDiff(cand, cfg) != nil {
				reduced = cand
				changed = true
				i--
			}
		}
	}
	return reduced
}

// TestDifferentialAsyncVsSync replays 1000+ seeded random interleavings of
// inserts/deletes/queries/flushes through a synchronous and an asynchronous
// maintainer, requiring every extent to equal recomputation over its own
// store: after every op synchronously, after every flush asynchronously.
// Queue depth and batch bound vary with the seed to cover single-delta
// batches, split batches and full-queue backpressure.
func TestDifferentialAsyncVsSync(t *testing.T) {
	sequences := 1100
	if testing.Short() {
		sequences = 150
	}
	for seed := 0; seed < sequences; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cfg := diffCfg{queueDepth: 1 + seed%7, batchMax: 1 + seed%5}
		ops := genDiffOps(rng, 12+rng.Intn(24))
		if err := runDiff(ops, cfg); err != nil {
			min := shrinkOps(ops, cfg)
			t.Fatalf("seed %d (queue=%d batch=%d): %v\nminimal failing op log (%d of %d ops):\n  %s\nminimal error: %v",
				seed, cfg.queueDepth, cfg.batchMax, err, len(min), len(ops), formatOps(min), runDiff(min, cfg))
		}
	}
}
