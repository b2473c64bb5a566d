package dict

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"rdfviews/internal/rdf"
)

// sameAsMarshal fails unless AppendJSONString writes json.Marshal's bytes.
func sameAsMarshal(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSONString(%q)\n got %s\nwant %s", s, got, want)
	}
	// Appending must leave what is already there alone.
	if got := AppendJSONString([]byte("x:"), s); !bytes.Equal(got[2:], want) || string(got[:2]) != "x:" {
		t.Fatalf("AppendJSONString onto a prefix: %s", got)
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for b := 0; b <= utf8.RuneSelf; b++ { // every ASCII byte (controls, " \ < > &, DEL) and 0x80
		f.Add(string([]byte{'a', byte(b), 'z'}))
	}
	for _, s := range awkward {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sameAsMarshal(t, s)
		// The same string as a served term: its literal in the table is the
		// escaper's too.
		d := New()
		id := d.Encode(rdf.NewLiteral(s))
		if got, want := d.Literals().literal(nil, id), AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("table literal of %q\n got %s\nwant %s", s, got, want)
		}
	})
}

// awkward are strings that exercise every branch of the escaper.
var awkward = []string{
	"", "plain", "\u2028", "\u2029", "a\u2028b\u2029c", "\u2027\u202a", // neighbours of the separators
	"\xed\xa0\x80", "\xed\xbf\xbf", "\xed\xa0\x80\xed\xb0\x80", // lone and paired surrogates, UTF-8 encoded
	"\xc3", "\xe2\x82", "\xf0\x9f\x98", "x\xe2\x80", "\xe2\x80\xa8"[:2] + "\xa9", // truncated sequences
	"\xff", "\xc0\x80", "\xf8\x88\x80\x80\x80", // never-valid bytes, overlong, 5-byte form
	"😀", "a😀b\U0010ffff", "\ufffd", "héllo 世界",
	`"`, `\`, "<>&", "\x00\x01\x1f\x7f", "\b\f\n\r\t",
}

// TestAppendJSONStringMatchesMarshal is the seeded property: 20 000 strings
// drawn from an alphabet dense in everything the escaper treats specially.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	pieces := []string{
		"a", "Z", "0", " ", "http://example.org/x#", `"`, `\`, "<", ">", "&", "/", "'",
		"\x00", "\x07", "\b", "\t", "\n", "\v", "\f", "\r", "\x1b", "\x1f", "\x7f",
		"é", "世", "\u2027", "\u2028", "\u2029", "\ufffd", "😀", "\U0010ffff",
		"\x80", "\xbf", "\xc3", "\xe2\x80", "\xf0\x9f", "\xed\xa0\x80", "\xff",
	}
	rng := rand.New(rand.NewSource(24))
	var sb []byte
	for i := 0; i < 20000; i++ {
		sb = sb[:0]
		for n := rng.Intn(12); n > 0; n-- {
			sb = append(sb, pieces[rng.Intn(len(pieces))]...)
		}
		sameAsMarshal(t, string(sb))
	}
}

// seededDictionary holds every kind of term the rendered table must get
// right: the awkward strings as literals, IRIs and blank nodes; the six
// vocabulary IRIs, which render shortened; an IRI and a literal with the
// same text; and literals longer than a chunk, so some literal spans chunks.
func seededDictionary() *Dictionary {
	d := New()
	for _, s := range awkward {
		d.Encode(rdf.NewLiteral(s))
		d.Encode(rdf.NewIRI("http://ex/" + s))
		d.Encode(rdf.NewBlank("b" + s))
	}
	for _, long := range []string{rdf.RDFType, rdf.RDFSSubClassOf, rdf.RDFSSubPropertyOf, rdf.RDFSDomain, rdf.RDFSRange, rdf.RDFSClass} {
		d.Encode(rdf.NewIRI(long))
	}
	d.Encode(rdf.NewIRI("twin"))
	d.Encode(rdf.NewLiteral("twin"))
	d.Encode(rdf.NewLiteral(strings.Repeat("<&>\u2028", litChunk/3)))
	d.Encode(rdf.NewLiteral(strings.Repeat("x", 3*litChunk)))
	return d
}

// checkLiterals fails unless l holds, for every ID it covers, the JSON of
// Render(id), and unless an ID past it agrees with Render on the
// dictionary's view taken after l, and so does each of the past IDs after
// that view (never assigned, unless a writer is running).
func checkLiterals(t *testing.T, d *Dictionary, l *Literals, past int) {
	t.Helper()
	view := d.View()
	if l.n > view.Len() {
		t.Fatalf("table renders %d IDs, dictionary holds %d", l.n, view.Len())
	}
	for id := ID(-1); id <= ID(view.Len()+past); id++ {
		want, err := json.Marshal(Render(view, id))
		if err != nil {
			t.Fatal(err)
		}
		if got := l.literal([]byte("x"), id); string(got[0]) != "x" || !bytes.Equal(got[1:], want) {
			t.Fatalf("literal of ID %d (table covers %d)\n got %.80s\nwant %.80s", id, l.n, got[1:], want)
		}
	}
}

// TestLiteralsMatchMarshal: the table's literal of every ID is
// json.Marshal(Render(id)) — IRIs shortened, literal values raw, an
// unassigned ID as ?id — including literals that span chunks.
func TestLiteralsMatchMarshal(t *testing.T) {
	d := seededDictionary()
	l := d.Literals()
	checkLiterals(t, d, l, 2)
	if l.n != d.Len() || len(l.bytes) < 4 {
		t.Fatalf("table covers %d of %d IDs in %d chunks; want all, in at least 4", l.n, d.Len(), len(l.bytes))
	}
	view := d.View()
	for short, long := range map[string]string{"rdf:type": rdf.RDFType, "rdfs:Class": rdf.RDFSClass} {
		id, _ := d.Lookup(rdf.NewIRI(long))
		if got := Render(view, id); got != short {
			t.Errorf("Render(%s) = %q, want %q", long, got, short)
		}
	}
	iri, _ := d.Lookup(rdf.NewIRI("twin"))
	lit, _ := d.Lookup(rdf.NewLiteral("twin"))
	if iri == lit || !bytes.Equal(l.literal(nil, iri), l.literal(nil, lit)) {
		t.Errorf("an IRI and a literal of one text: IDs %d and %d, literals %s and %s", iri, lit, l.literal(nil, iri), l.literal(nil, lit))
	}
	if got := string(l.literal(nil, ID(d.Len()+1))); got != fmt.Sprintf(`"?%d"`, d.Len()+1) {
		t.Errorf("unassigned ID renders %s", got)
	}

	// A state taken earlier still answers for IDs added since, from the
	// dictionary's current table.
	added := d.Encode(rdf.NewLiteral("added \"later\""))
	if got := string(l.literal(nil, added)); got != `"added \"later\""` {
		t.Errorf("ID added after the state: %s", got)
	}
	if d.Literals().n != d.Len() {
		t.Error("the table was not extended to the added term")
	}
	checkLiterals(t, d, l, 2)
}

// TestLiteralsConcurrentEncode repeats the check while another goroutine
// encodes fresh terms: every state taken covers what was assigned before it,
// and is right however the table grows behind it (run it under -race).
func TestLiteralsConcurrentEncode(t *testing.T) {
	d := seededDictionary()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			d.Encode(rdf.NewLiteral(fmt.Sprintf("fresh %d %s", i, awkward[i%len(awkward)])))
			if i%7 == 0 {
				d.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/fresh/%d", i)))
			}
		}
	}()
	for round, writing := 0, true; writing || round < 3; round++ {
		select {
		case <-done:
			writing = false
		default:
		}
		before := d.Len()
		l := d.Literals()
		if l.n < before {
			t.Fatalf("state covers %d IDs, %d were assigned before it was taken", l.n, before)
		}
		checkLiterals(t, d, l, 0)
	}
	checkLiterals(t, d, d.Literals(), 2)
}

// TestLiteralsBytesPerTerm bounds what a served dictionary's table costs: 4
// bytes a term, plus the literal of each term that escaping or shortening
// changes (a literal that is its value in quotes is not copied), plus at
// most one partly filled chunk of each kind. It also checks that a
// dictionary that is never served holds no table, whatever else reads it.
func TestLiteralsBytesPerTerm(t *testing.T) {
	d := New()
	const n = 50000
	changed := 0 // bytes of the literals escaping changes
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			v := fmt.Sprintf("\"quoted\" <%d>", i)
			d.Encode(rdf.NewLiteral(v))
			changed += len(AppendJSONString(nil, v))
			continue
		}
		d.Encode(rdf.NewIRI(fmt.Sprintf("http://example.org/entity/%d", i)))
	}
	for _, id := range []ID{1, n, n + 1} {
		d.Decode(id)
	}
	d.Lookup(rdf.NewIRI("http://example.org/entity/7"))
	Render(d.View(), 3)
	if d.lits.Load() != nil {
		t.Fatal("a dictionary never served holds a rendered table")
	}
	l := d.Literals()
	if int(l.size) != changed {
		t.Fatalf("table holds %d literal bytes, want the %d of the literals escaping changes", l.size, changed)
	}
	held := len(l.bytes)*litChunk + len(l.ends)*endChunk*4
	if limit := 4*n + changed + litChunk + 4*endChunk; held > limit {
		t.Fatalf("table holds %d bytes for %d terms, more than 4 a term, %d changed literal bytes and a chunk of each kind (%d)", held, n, changed, limit)
	}
	t.Logf("%d terms: %.2f B a term held, %.2f of them literal bytes", n, float64(held)/n, float64(changed)/n)
}
