package dict

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
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

// TestLookupAllocatesNothing: the table hashes a term's value and compares
// it with the arena's bytes, so a lookup of a present term builds no key
// string, and neither does re-encoding one; the same value under another
// kind is another term.
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

// TestDictionaryMatchesModel runs seeded random Encode, Lookup and Decode
// sequences against a map model keyed by kind and value, where a kind past
// Blank files as a blank node and decodes as first encoded. The values mix a
// small pool (equal values under every kind), the empty value (once at a
// chunk boundary), values longer than an arena chunk, and enough fresh values
// to double the table several times. Each run ends by checking the whole
// dictionary, its view, that looking a held term up and decoding it allocate
// nothing, and FromTerms of its terms with and without a term listed twice.
func TestDictionaryMatchesModel(t *testing.T) {
	long := strings.Repeat("a value longer than an arena chunk ", arenaChunk/20)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New()
		ids := map[rdf.Term]ID{} // kind (past Blank as Blank) and value -> ID
		var terms []rdf.Term     // ID i+1's term, as first encoded
		key := func(tm rdf.Term) rdf.Term { return rdf.Term{Kind: min(tm.Kind, rdf.Blank), Value: tm.Value} }
		value := func() string {
			switch r := rng.Intn(100); {
			case r < 3:
				return ""
			case r < 5:
				return long + strconv.Itoa(rng.Intn(4))
			case r < 40:
				return "pool" + strconv.Itoa(rng.Intn(40))
			}
			return "fresh " + strconv.Itoa(rng.Intn(20000))
		}
		encode := func(step int, tm rdf.Term) {
			want, ok := ids[key(tm)]
			if !ok {
				terms = append(terms, tm)
				want = ID(len(terms))
				ids[key(tm)] = want
			}
			if got := d.Encode(tm); got != want {
				t.Fatalf("seed %d step %d: Encode(%v) = %d, want %d", seed, step, tm, got, want)
			}
		}
		// A value that fills its chunk to the end, then an empty value at the
		// boundary, which has no chunk yet, then a short one after it.
		exact := strings.Repeat("c", arenaChunk-len("pool1"))
		for i, v := range []string{"pool1", exact, "", "x"} {
			encode(-1-i, rdf.NewLiteral(v))
		}
		for step := 0; step < 30000; step++ {
			tm := rdf.Term{Kind: rdf.TermKind(rng.Intn(5)), Value: value()}
			switch rng.Intn(4) {
			case 0, 1:
				encode(step, tm)
			case 2:
				want, wantOK := ids[key(tm)]
				if got, ok := d.Lookup(tm); got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: Lookup(%v) = %d,%v, want %d,%v", seed, step, tm, got, ok, want, wantOK)
				}
			case 3:
				id := ID(rng.Intn(len(terms)+3) - 1)
				got, err := d.Decode(id)
				if id < 1 || id > ID(len(terms)) {
					if err == nil {
						t.Fatalf("seed %d: Decode(%d) of %d terms succeeded", seed, id, len(terms))
					}
				} else if err != nil || got != terms[id-1] {
					t.Fatalf("seed %d: Decode(%d) = %v,%v, want %v", seed, id, got, err, terms[id-1])
				}
			}
		}
		if len(d.slots) < 16<<8 {
			t.Fatalf("seed %d: %d terms left the table at %d slots; want 8 doublings or more", seed, len(terms), len(d.slots))
		}
		checkModel(t, d, terms)
		held := terms[rng.Intn(len(terms))]
		if allocs := testing.AllocsPerRun(100, func() {
			id, ok := d.Lookup(held)
			if _, err := d.Decode(id); !ok || err != nil {
				t.Fatalf("held term %v: Lookup ok %v, Decode error %v", held, ok, err)
			}
		}); allocs != 0 {
			t.Errorf("Lookup and Decode of a held term allocate %.0f times, want 0", allocs)
		}
		all := d.Terms()
		checkModel(t, FromTerms(all), terms)
		if dup := FromTerms(append(all[:len(all):len(all)], all[rng.Intn(len(all))])); dup.Len() != len(all) {
			t.Fatalf("seed %d: FromTerms of %d terms with one listed twice holds %d", seed, len(all)+1, dup.Len())
		}
	}
}

// checkModel fails unless d holds exactly terms, in ID order: Len, Decode,
// Lookup of each term under its own kind, and a view of d.
func checkModel(t *testing.T, d *Dictionary, terms []rdf.Term) {
	t.Helper()
	view := d.View()
	if d.Len() != len(terms) || view.Len() != len(terms) {
		t.Fatalf("dictionary holds %d terms, its view %d; want %d", d.Len(), view.Len(), len(terms))
	}
	for i, want := range terms {
		id := ID(i + 1)
		if got, err := d.Decode(id); err != nil || got != want {
			t.Fatalf("Decode(%d) = %v,%v, want %v", id, got, err, want)
		}
		if got, ok := view.Term(id); !ok || got != want {
			t.Fatalf("view.Term(%d) = %v,%v, want %v", id, got, ok, want)
		}
		if got, ok := d.Lookup(rdf.Term{Kind: want.Kind, Value: strings.Clone(want.Value)}); !ok || got != id {
			t.Fatalf("Lookup(%v) = %d,%v, want %d", want, got, ok, id)
		}
	}
	if _, ok := view.Term(ID(len(terms) + 1)); ok {
		t.Fatal("the view holds an ID past its end")
	}
}

// TestDictionaryConcurrentEncodeDecode: two writers encode the same fresh
// terms in the same order, so fresh term i gets ID base+i+1 whichever writer
// assigns it, while readers, each working from a table and a view taken
// earlier, check every ID the view holds against that model through the view,
// Decode, Lookup and the rendered table (IDs past the table's end included).
// Run it under -race.
func TestDictionaryConcurrentEncodeDecode(t *testing.T) {
	d := seededDictionary()
	var model []rdf.Term
	for _, tm := range d.Terms() {
		model = append(model, rdf.Term{Kind: tm.Kind, Value: strings.Clone(tm.Value)})
	}
	for i := 0; i < 3000; i++ {
		tm := rdf.NewLiteral(fmt.Sprintf("fresh %d %s", i, awkward[i%len(awkward)]))
		switch i % 5 {
		case 1:
			tm = rdf.NewIRI(fmt.Sprintf("http://ex/fresh/%d", i))
		case 2:
			tm = rdf.NewBlank(awkward[i%len(awkward)] + strconv.Itoa(i))
		case 3:
			tm.Value = strings.Repeat("long ", i%7*arenaChunk/8) + tm.Value
		}
		model = append(model, tm)
	}
	want := make([][]byte, len(model)) // ID i+1's literal
	for i, tm := range model {
		v := tm.Value
		if tm.Kind == rdf.IRI {
			v = rdf.ShortenIRI(v)
		}
		want[i] = AppendJSONString(nil, v)
	}
	base := d.Len()

	var wg sync.WaitGroup
	done := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := base; i < len(model); i++ {
				if got := d.Encode(model[i]); got != ID(i+1) {
					t.Errorf("Encode(fresh %d) = %d, want %d", i-base, got, i+1)
					return
				}
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	go func() { writers.Wait(); close(done) }()
	seps, end := [][]byte{[]byte("|")}, []byte(";")
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rows [][]ID
			var dst, exp []byte
			for round, writing := 0, true; writing || round < 2; round++ {
				select {
				case <-done:
					writing = false
				default:
				}
				l := d.Literals()
				view := d.View()
				rows, exp = rows[:0], exp[:0]
				for id := ID(1); id <= ID(view.Len()); id++ {
					tm := model[id-1]
					if got, ok := view.Term(id); !ok || got != tm {
						t.Errorf("view.Term(%d) = %v,%v, want %v", id, got, ok, tm)
						return
					}
					if got, err := d.Decode(id); err != nil || got != tm {
						t.Errorf("Decode(%d) = %v,%v, want %v", id, got, err, tm)
						return
					}
					if got, ok := d.Lookup(tm); !ok || got != id {
						t.Errorf("Lookup(%v) = %d,%v, want %d", tm, got, ok, id)
						return
					}
					rows = append(rows, []ID{id})
					if id > 1 {
						exp = append(exp, ',')
					}
					exp = append(append(append(exp, '|'), want[id-1]...), ';')
				}
				if dst = AppendRows(l, dst[:0], false, rows, seps, end); !bytes.Equal(dst, exp) {
					t.Errorf("AppendRows over %d IDs (table at %d) differs from the model", view.Len(), l.n)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	checkModel(t, d, model)
}
