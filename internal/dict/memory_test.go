package dict_test

import (
	"runtime"
	"strings"
	"testing"

	"rdfviews/internal/datagen"
	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
)

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDictionaryBytesPerTerm is the dictionary's memory tripwire: what it
// keeps on the heap per term, value bytes included, for the terms of the
// generator's 100 k-triple dataset (about 15.7 k terms of 16.4 value bytes),
// each encoded from a string only the dictionary holds. A term costs its
// value in the arena, a 4-byte offset, a kind byte, and 4 bytes per
// table slot at a load of 3/8 to 3/4 (about 30 B here). A map per kind of
// Term keys with a slice of rdf.Term would not fit (about 84 B).
func TestDictionaryBytesPerTerm(t *testing.T) {
	st, _ := datagen.Generate(datagen.Config{Triples: 100_000, Seed: 1})
	terms := st.Dict().Terms()
	st = nil
	values := 0
	for _, tm := range terms {
		values += len(tm.Value)
	}
	before := heapAfterGC()
	d := dict.New()
	for _, tm := range terms {
		d.Encode(rdf.Term{Kind: tm.Kind, Value: strings.Clone(tm.Value)})
	}
	perTerm := (float64(heapAfterGC()) - float64(before)) / float64(d.Len())
	runtime.KeepAlive(d)
	runtime.KeepAlive(terms)
	t.Logf("%d terms of %.1f value bytes: %.1f B a term", d.Len(), float64(values)/float64(len(terms)), perTerm)
	if d.Len() != len(terms) {
		t.Fatalf("dictionary holds %d of %d terms", d.Len(), len(terms))
	}
	if perTerm > 44 {
		t.Errorf("dictionary holds %.1f B a term, want <= 44", perTerm)
	}
}
