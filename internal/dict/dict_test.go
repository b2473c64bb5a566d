package dict

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"rdfviews/internal/rdf"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://ex/a"),
		rdf.NewLiteral("a"),
		rdf.NewBlank("a"),
		rdf.NewIRI("http://ex/b"),
	}
	ids := make([]ID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Encode(tm)
		if ids[i] < 1 {
			t.Fatalf("ID %d < 1", ids[i])
		}
	}
	// Same term encodes to same ID.
	for i, tm := range terms {
		if got := d.Encode(tm); got != ids[i] {
			t.Errorf("re-encode %v: %d != %d", tm, got, ids[i])
		}
	}
	// Distinct terms get distinct IDs.
	seen := map[ID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %d", id)
		}
		seen[id] = true
	}
	for i, id := range ids {
		back, err := d.Decode(id)
		if err != nil {
			t.Fatal(err)
		}
		if back != terms[i] {
			t.Errorf("Decode(%d) = %v, want %v", id, back, terms[i])
		}
	}
	if d.Len() != len(terms) {
		t.Errorf("Len = %d, want %d", d.Len(), len(terms))
	}
}

func TestDecodeErrors(t *testing.T) {
	d := New()
	d.Encode(rdf.NewIRI("x"))
	for _, id := range []ID{0, -1, 2, 99} {
		if _, err := d.Decode(id); err == nil {
			t.Errorf("Decode(%d) should fail", id)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDecode on bad ID should panic")
		}
	}()
	d.MustDecode(42)
}

func TestLookup(t *testing.T) {
	d := New()
	id := d.EncodeIRI("rdf:type")
	got, ok := d.LookupIRI("rdf:type")
	if !ok || got != id {
		t.Errorf("LookupIRI(rdf:type) = %d,%v want %d,true", got, ok, id)
	}
	// Expanded and short forms are the same entry.
	got2, ok2 := d.Lookup(rdf.NewIRI(rdf.RDFType))
	if !ok2 || got2 != id {
		t.Errorf("expanded lookup = %d,%v", got2, ok2)
	}
	if _, ok := d.LookupIRI("absent"); ok {
		t.Error("LookupIRI(absent) should miss")
	}
}

func TestSortedIDs(t *testing.T) {
	d := New()
	for i := 0; i < 5; i++ {
		d.Encode(rdf.NewIRI(fmt.Sprintf("t%d", i)))
	}
	ids := d.SortedIDs()
	if len(ids) != 5 {
		t.Fatalf("len = %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("not sorted: %v", ids)
		}
	}
}

func TestEncodeInjectiveProperty(t *testing.T) {
	d := New()
	f := func(vals []string, kinds []uint8) bool {
		type enc struct {
			term rdf.Term
			id   ID
		}
		var encs []enc
		for i, v := range vals {
			k := rdf.TermKind(0)
			if i < len(kinds) {
				k = rdf.TermKind(kinds[i] % 3)
			}
			tm := rdf.Term{Kind: k, Value: v}
			encs = append(encs, enc{tm, d.Encode(tm)})
		}
		for i := range encs {
			for j := range encs {
				if (encs[i].term == encs[j].term) != (encs[i].id == encs[j].id) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLookupAllocatesNothing: a term is filed under its kind by its value,
// so a lookup of a present term builds no key string, and neither does
// re-encoding one; the same value under another kind is another term.
func TestLookupAllocatesNothing(t *testing.T) {
	d := New()
	terms := []rdf.Term{rdf.NewIRI("http://ex/painter"), rdf.NewLiteral("Starry Night"), rdf.NewBlank("b0")}
	for _, tm := range terms {
		d.Encode(tm)
	}
	probe := rdf.NewLiteral(strings.Clone(terms[1].Value)) // equal value, its own bytes
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := d.Lookup(probe); !ok {
			t.Fatal("present term not found")
		}
		d.Encode(terms[0])
	}); allocs != 0 {
		t.Errorf("Lookup of a present term allocates %.0f times, want 0", allocs)
	}
	if _, ok := d.Lookup(rdf.NewIRI(terms[1].Value)); ok {
		t.Error("a literal's value found as an IRI")
	}
}
