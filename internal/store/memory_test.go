package store

import (
	"math/rand"
	"runtime"
	"testing"

	"rdfviews/internal/dict"
)

// seededTriples returns n distinct triples over raw IDs (no dictionary
// strings, so a heap delta around building a store is the store's alone).
func seededTriples(n int, seed int64) []Triple {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Triple]struct{}, n)
	ts := make([]Triple, 0, n)
	for len(ts) < n {
		t := Triple{
			dict.ID(1 + rng.Intn(n/4)),
			dict.ID(1 + n + rng.Intn(32)),
			dict.ID(1 + rng.Intn(n/4)),
		}
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			ts = append(ts, t)
		}
	}
	return ts
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesPerTriple is the memory tripwire: what a loaded store
// keeps on the heap per triple. A layout keeps four orders and reads SOP and
// OPS from SPO and OSP. A flat layout's one shard costs the 12-byte stored
// triple and four 4-byte positions (28 B). A dual layout keeps each order
// once: a subject shard holds the triple and two positions (20 B), an object
// shard the triple and one (16 B), its POS index being the triple slice
// itself. The bounds leave room for allocator size classes and nothing else.
// 64-bit stored columns would not fit (48 B on one shard, 85 B on
// Dual(2,2)), nor would a per-triple map, an order kept on both sides of a
// dual layout, a position list for the object side's POS, or stored SOP and
// OPS lists (36 B on one shard, 44.7 B on Dual(2,2)).
func TestResidentBytesPerTriple(t *testing.T) {
	const n = 100_000
	ts := seededTriples(n, 1)
	for _, tc := range []struct {
		name              string
		subjectK, objectK int
		maxBytes          float64
	}{
		{"one-shard", 1, 0, 31},
		{"dual-2x2", 2, 2, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := heapAfterGC()
			st := NewDual(tc.subjectK, tc.objectK)
			if got := st.AddBatch(ts); got != n {
				t.Fatalf("AddBatch added %d of %d", got, n)
			}
			perTriple := (float64(heapAfterGC()) - float64(before)) / n
			t.Logf("%.1f B/triple", perTriple)
			if perTriple > tc.maxBytes {
				t.Errorf("store holds %.1f B/triple, want <= %.0f", perTriple, tc.maxBytes)
			}
			runtime.KeepAlive(st)
		})
	}
}
