package store

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
)

func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	st := New()
	rng := rand.New(rand.NewSource(1))
	d := st.Dict()
	for st.Len() < n {
		st.Add(Triple{
			d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(n/4+1))),
			d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(32))),
			d.EncodeIRI(fmt.Sprintf("o%d", rng.Intn(n/4+1))),
		})
	}
	st.Count(Pattern{}) // build indexes outside the timed region
	return st
}

func BenchmarkCountByProperty(b *testing.B) {
	st := benchStore(b, 50000)
	p, _ := st.Dict().LookupIRI("p7")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Count(Pattern{Wildcard, p, Wildcard})
	}
}

func BenchmarkScanByProperty(b *testing.B) {
	st := benchStore(b, 50000)
	p, _ := st.Dict().LookupIRI("p7")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		st.Scan(Pattern{Wildcard, p, Wildcard}, func(Triple) bool { n++; return true })
	}
}

func BenchmarkAddDedup(b *testing.B) {
	g := rdf.MustParse("a p b .")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		st.MustAddGraph(g)
		for j := 0; j < 100; j++ {
			st.Add(Triple{1, 2, 3}) // duplicate
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	st := benchStore(b, 20000)
	tr := st.Triples()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st2 := NewWithDict(st.Dict())
		for _, t := range tr {
			st2.Add(t)
		}
	}
}

// BenchmarkBulkBuildDual times the bring-up path: 100k triples in one
// AddBatch into a Dual(2,2) store — two full sorts per subject shard, one per
// object shard, every other permutation derived (390 ms before that, when each
// of the 24 indexes was sorted on its own and compacted out of an overlay).
func BenchmarkBulkBuildDual(b *testing.B) {
	ts := seededTriples(100_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewDual(2, 2)
		if st.AddBatch(ts) != len(ts) {
			b.Fatal("short load")
		}
	}
}

// benchUpdateTriple returns the i-th synthetic update triple.
func benchUpdateTriple(d *dict.Dictionary, i int) Triple {
	return Triple{
		d.EncodeIRI(fmt.Sprintf("upd-s%d", i)),
		d.EncodeIRI("upd-p"),
		d.EncodeIRI(fmt.Sprintf("upd-o%d", i)),
	}
}

// BenchmarkUpdateThenReadIncremental is the update-heavy shape that motivated
// incremental maintenance: each operation inserts one triple and immediately
// reads a pattern count (the shape of delta propagation in
// internal/maintain), paying a membership search and a small overlay merge.
func BenchmarkUpdateThenReadIncremental(b *testing.B) {
	st := benchStore(b, 50000)
	p, _ := st.Dict().LookupIRI("p7")
	pat := Pattern{Wildcard, p, Wildcard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Add(benchUpdateTriple(st.Dict(), i))
		_ = st.Count(pat)
	}
}

// benchDualStore is benchStore over an explicit placement.
func benchDualStore(b *testing.B, subjectK, objectK, n int) *Store {
	b.Helper()
	st := NewDual(subjectK, objectK)
	rng := rand.New(rand.NewSource(1))
	d := st.Dict()
	for st.Len() < n {
		st.Add(Triple{
			d.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(n/4+1))),
			d.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(32))),
			d.EncodeIRI(fmt.Sprintf("o%d", rng.Intn(n/4+1))),
		})
	}
	st.Count(Pattern{})
	return st
}

// BenchmarkObjectBoundLookup measures what placement routing buys on the
// reformulated-union access shape (?s p o): on a subject-only K=8 store the
// lookup fans out over all 8 shards and merges their streams; on an 8×8 dual
// layout it opens exactly the one object shard that owns the constant.
func BenchmarkObjectBoundLookup(b *testing.B) {
	for _, bc := range []struct {
		name              string
		subjectK, objectK int
	}{
		{"fanout-8-subject-shards", 8, 0},
		{"pruned-8x8-dual", 8, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st := benchDualStore(b, bc.subjectK, bc.objectK, 50000)
			d := st.Dict()
			objs := make([]dict.ID, 0, 64)
			for i := 0; len(objs) < cap(objs); i++ {
				// A sparse object may miss the random fixture; a failed lookup
				// would turn the position into a Wildcard and the point lookup
				// into a full scan, so keep only objects that exist.
				if id, ok := d.LookupIRI(fmt.Sprintf("o%d", i)); ok {
					objs = append(objs, id)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pat := Pattern{Wildcard, Wildcard, objs[i%len(objs)]}
				pi, _ := indexFor(pat)
				cur := st.NewCursor(Perm(pi), pat)
				for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				}
			}
		})
	}
}

// BenchmarkRemoveThenReadIncremental is the deletion-side counterpart:
// tombstone + threshold merge versus what would have been a full rebuild.
func BenchmarkRemoveThenReadIncremental(b *testing.B) {
	st := benchStore(b, 50000)
	p, _ := st.Dict().LookupIRI("p7")
	pat := Pattern{Wildcard, p, Wildcard}
	victims := st.Triples()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := victims[i%len(victims)]
		if st.Remove(tr) {
			st.Add(tr) // keep the store size stable
		}
		_ = st.Count(pat)
	}
}
