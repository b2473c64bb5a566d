package store

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"rdfviews/internal/dict"
)

// TestPackedTripleSize pins the stored triple at three 32-bit columns.
func TestPackedTripleSize(t *testing.T) {
	if got := unsafe.Sizeof(packed{}); got != 12 {
		t.Fatalf("stored triple takes %d bytes, want 12", got)
	}
}

// TestWideKeysMatchNothing reads every fixture (one shard, four shards and
// Dual(2,2); clean, overlay and tombstoned) with IDs no 32-bit column holds:
// a parameter sentinel at 1<<56 and, for each column, 1<<32 plus a stored ID,
// whose low 32 bits name a real triple. Count, Contains, Remove, cursors and
// SeekGE, on the store and on a Snapshot, must find nothing and not panic.
func TestWideKeysMatchNothing(t *testing.T) {
	for _, fx := range cursorFixtures(t, 200, 3) {
		st := fx.st
		ts := st.Triples()
		n, epoch := st.Len(), st.Epoch()
		readers := []Reader{st, st.Snapshot()}
		for _, t0 := range ts[:5] {
			for c := 0; c < 3; c++ {
				for _, key := range []dict.ID{1 << 56, 1<<32 + t0[c]} {
					wide := t0
					wide[c] = key
					if st.Remove(wide) {
						t.Fatalf("%s: Remove(%v) removed a triple", fx.name, wide)
					}
					one := Pattern{}
					one[c] = key
					two := Pattern(wide)
					two[(c+1)%3] = Wildcard
					for _, r := range readers {
						if r.Contains(wide) {
							t.Fatalf("%s: Contains(%v) is true", fx.name, wide)
						}
						for _, pat := range []Pattern{one, two, Pattern(wide)} {
							if got := r.Count(pat); got != 0 {
								t.Fatalf("%s: Count(%v) = %d, want 0", fx.name, pat, got)
							}
							for p := SPO; p <= OPS; p++ {
								if got := drain(r.NewCursor(p, pat)); len(got) != 0 {
									t.Fatalf("%s: %v cursor over %v streams %v", fx.name, p, pat, got)
								}
							}
						}
					}
				}
			}
		}
		for _, r := range readers {
			for p := SPO; p <= OPS; p++ {
				for _, key := range []dict.ID{1 << 32, 1 << 56} {
					c := r.NewCursor(p, Pattern{})
					c.SeekGE(perms[p][0], key)
					if got := drain(c); len(got) != 0 {
						t.Fatalf("%s: %v cursor after SeekGE(%d) streams %d triples", fx.name, p, key, len(got))
					}
				}
			}
		}
		if st.Len() != n || st.Epoch() != epoch {
			t.Fatalf("%s: wide-key reads changed the store: Len %d -> %d, Epoch %d -> %d", fx.name, n, st.Len(), epoch, st.Epoch())
		}
	}
}

// TestAddRejectsIDsOutsideColumns: Add and AddBatch panic with idRangePanic
// on an ID outside [0, 2^32-1] and leave the store as it was — a batch is
// checked whole before any shard, on either side, is written. The largest
// storable ID round-trips.
func TestAddRejectsIDsOutsideColumns(t *testing.T) {
	for _, k := range [][2]int{{1, 0}, {4, 0}, {2, 2}} {
		st := NewDual(k[0], k[1])
		st.AddBatch(seededTriples(400, 5))
		before, epoch := st.Triples(), st.Epoch()
		fresh := []Triple{{9001, 9002, 9003}, {9004, 9005, 9006}}
		for _, bad := range []Triple{{1, 2, 1 << 32}, {-1, 2, 3}, {1, 1 << 56, 3}} {
			mustPanicRange(t, func() { st.Add(bad) })
			mustPanicRange(t, func() { st.AddBatch([]Triple{fresh[0], bad, fresh[1]}) })
		}
		if got := st.Triples(); !slices.Equal(got, before) || st.Epoch() != epoch {
			t.Fatalf("Dual(%d,%d): a rejected write changed the store (%d -> %d triples, epoch %d -> %d)",
				k[0], k[1], len(before), len(got), epoch, st.Epoch())
		}
		for _, f := range fresh {
			if st.Contains(f) || st.Count(Pattern{0, 0, f[O]}) != 0 || st.Count(Pattern{0, f[P], 0}) != 0 {
				t.Fatalf("Dual(%d,%d): %v of a rejected batch is readable", k[0], k[1], f)
			}
		}

		top := Triple{math.MaxUint32, math.MaxUint32, math.MaxUint32}
		if !st.Add(top) || !st.Contains(top) {
			t.Fatalf("Dual(%d,%d): the largest storable ID does not round-trip", k[0], k[1])
		}
		for _, pat := range []Pattern{{top[S], 0, 0}, {0, top[P], 0}, {0, 0, top[O]}} {
			if got := st.Match(pat); len(got) != 1 || got[0] != top {
				t.Fatalf("Dual(%d,%d): Match(%v) = %v, want [%v]", k[0], k[1], pat, got, top)
			}
		}
	}
}

func mustPanicRange(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r != idRangePanic {
			t.Fatalf("panicked with %v, want %q", r, idRangePanic)
		}
	}()
	f()
}

// TestSingleSpliceMatchesMerge: splicing one position into a sorted list
// puts it where the two-way merge would, after its equals (a re-added
// triple's tombstoned copies share its key).
func TestSingleSpliceMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tris := make([]packed, 300)
	for i := range tris {
		tris[i] = packed{uint32(rng.Intn(4)), uint32(rng.Intn(3)), uint32(rng.Intn(4))}
	}
	for p := SPO; p <= OPS; p++ {
		a := make([]int32, len(tris)-1)
		for i := range a {
			a[i] = int32(i)
		}
		slices.SortStableFunc(a, positionCmp(tris, p))
		for b := int32(len(tris) - 1); b >= 0; b -= 37 {
			rest := slices.DeleteFunc(slices.Clone(a), func(x int32) bool { return x == b })
			want := append(slices.Clone(rest), b)
			slices.SortStableFunc(want, positionCmp(tris, p))
			if got := mergePositions(tris, rest, []int32{b}, perms[p]); !slices.Equal(got, want) {
				t.Fatalf("%v: %d spliced in at %d, the merge puts it at %d", p, b, slices.Index(got, b), slices.Index(want, b))
			}
		}
	}
}
