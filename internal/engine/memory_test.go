package engine

import (
	"runtime"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestExtentBytesPerRow is the extent memory tripwire: what a view extent,
// as the maintainer keeps it (Sorted, its order its index), holds on the
// heap per row: 4 B per column in the 32-bit slabs and nothing else, so the
// bound of 4·arity + 2 leaves room for allocator size classes only. A
// position table beside the rows (the RowIndex an extent used to carry:
// 18.5 B a row at arity 2, 22.5 at arity 3), rows of []dict.ID with a
// 24-byte header each, or a table of stored hashes would not fit.
func TestExtentBytesPerRow(t *testing.T) {
	const n = 100_000
	st := store.New()
	ts := make([]store.Triple, n)
	for i := range ts {
		// (s, o) pairs are distinct, so both views below have n rows.
		ts[i] = store.Triple{dict.ID(1 + i%512), dict.ID(1_000_000 + i%3), dict.ID(1000 + i/512)}
	}
	if got := st.AddBatch(ts); got != n {
		t.Fatalf("AddBatch added %d of %d", got, n)
	}
	s, p, o := cq.Var(1), cq.Var(2), cq.Var(3)
	for _, head := range [][]cq.Term{{s, o}, {s, p, o}} {
		q := &cq.Query{Head: head, Atoms: []cq.Atom{{s, p, o}}}
		before := heapAfterGC()
		rel, err := Materialize(st, q)
		if err != nil {
			t.Fatal(err)
		}
		x := Sorted(rel)
		perRow := (float64(heapAfterGC()) - float64(before)) / n
		if x.Len() != n {
			t.Fatalf("arity %d: %d rows, want %d", len(head), x.Len(), n)
		}
		bound := float64(4*len(head) + 2)
		t.Logf("arity %d: %.1f B/row (bound %.0f)", len(head), perRow, bound)
		if perRow > bound {
			t.Errorf("arity %d: a maintained extent holds %.1f B/row, want <= %.0f", len(head), perRow, bound)
		}
		runtime.KeepAlive(x)
	}
}

// TestUnionBytesPerRow is the dedup set's memory tripwire: what draining a
// union of two scans over one arity-2 extent allocates per distinct row. The
// set is a RowIndex over a 32-bit Relation of the union's columns: 8 B of
// column slab a row, about as much again in append's growth, and a position
// table sized from the branches' estimates; the bound of 96 B leaves room for
// that and the batches. A set that copies each kept row into a []dict.ID
// with a 24-byte header and a 16-byte hashed slot read about 200.
func TestUnionBytesPerRow(t *testing.T) {
	x1, x2 := cq.Var(1), cq.Var(2)
	u := algebra.NewUnion(algebra.NewScan(1, []cq.Term{x1, x2}), algebra.NewScan(1, []cq.Term{x1, x2}))
	for _, n := range []int{5_000, 50_000} {
		resolve := MapResolver(map[algebra.ViewID]*Relation{1: bigExtent([]cq.Term{x1, x2}, n)})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := ExecuteStream(u, resolve, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			slab, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if slab == nil {
				break
			}
			rows += len(slab)
		}
		runtime.ReadMemStats(&after)
		if rows != n {
			t.Fatalf("%d-row extent: the union emitted %d rows, want %d", n, rows, n)
		}
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("%d rows: %.1f B allocated per distinct row (bound 96)", n, perRow)
		if perRow > 96 {
			t.Errorf("%d rows: draining the union allocated %.1f B per distinct row, want <= 96", n, perRow)
		}
	}
}
