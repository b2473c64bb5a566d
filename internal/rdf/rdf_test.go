package rdf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	iri := NewIRI("http://ex/a")
	lit := NewLiteral("hello")
	bn := NewBlank("b0")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() {
		t.Errorf("IRI predicates wrong: %+v", iri)
	}
	if !lit.IsLiteral() || lit.IsIRI() || lit.IsBlank() {
		t.Errorf("literal predicates wrong: %+v", lit)
	}
	if !bn.IsBlank() || bn.IsIRI() || bn.IsLiteral() {
		t.Errorf("blank predicates wrong: %+v", bn)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		in   Term
		want string
	}{
		{NewIRI("http://ex/a"), "<http://ex/a>"},
		{NewLiteral(`say "hi"`), `"say \"hi\""`},
		{NewBlank("x"), "_:x"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTermKeyRoundTrip(t *testing.T) {
	terms := []Term{NewIRI("a"), NewLiteral("a"), NewBlank("a"), NewIRI(""), NewLiteral("")}
	keys := make(map[string]bool)
	for _, tm := range terms {
		k := tm.Key()
		if keys[k] {
			t.Errorf("duplicate key %q for distinct terms", k)
		}
		keys[k] = true
		back, err := TermFromKey(k)
		if err != nil {
			t.Fatalf("TermFromKey(%q): %v", k, err)
		}
		if back != tm {
			t.Errorf("roundtrip %v -> %q -> %v", tm, k, back)
		}
	}
	if _, err := TermFromKey(""); err == nil {
		t.Error("TermFromKey(\"\") should fail")
	}
	if _, err := TermFromKey("zoo"); err == nil {
		t.Error("TermFromKey with bad tag should fail")
	}
}

func TestTermKeyInjective(t *testing.T) {
	f := func(a, b string, ka, kb uint8) bool {
		ta := Term{Kind: TermKind(ka % 3), Value: a}
		tb := Term{Kind: TermKind(kb % 3), Value: b}
		if ta == tb {
			return ta.Key() == tb.Key()
		}
		return ta.Key() != tb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTripleWellFormed(t *testing.T) {
	good := []Triple{
		T("s", "p", "o"),
		NewTriple(NewBlank("b"), NewIRI("p"), NewLiteral("v")),
		NewTriple(NewIRI("s"), NewIRI("p"), NewBlank("b")),
	}
	for _, tr := range good {
		if !tr.WellFormed() {
			t.Errorf("%v should be well-formed", tr)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%v should validate: %v", tr, err)
		}
	}
	bad := []Triple{
		NewTriple(NewLiteral("v"), NewIRI("p"), NewIRI("o")), // literal subject
		NewTriple(NewIRI("s"), NewLiteral("p"), NewIRI("o")), // literal property
		NewTriple(NewIRI("s"), NewBlank("p"), NewIRI("o")),   // blank property
		NewTriple(NewIRI(""), NewIRI("p"), NewIRI("o")),      // empty subject
	}
	for _, tr := range bad {
		if tr.WellFormed() {
			t.Errorf("%v should not be well-formed", tr)
		}
		if err := tr.Validate(); err == nil {
			t.Errorf("%v should not validate", tr)
		}
	}
}

func TestGraphDedupAndContains(t *testing.T) {
	g := Graph{T("a", "p", "b"), T("a", "p", "b"), T("a", "p", "c")}
	d := g.Dedup()
	if len(d) != 2 {
		t.Fatalf("Dedup: got %d triples, want 2", len(d))
	}
	if !d.Contains(T("a", "p", "c")) || d.Contains(T("x", "y", "z")) {
		t.Error("Contains is wrong after dedup")
	}
}

func TestParseBasicForms(t *testing.T) {
	in := `
# a comment
<http://ex/u1> <http://ex/hasPainted> <http://ex/starryNight> .
u1 hasPainted starryNight
u1 rdf:type painter .
u2 name "Vincent van \"Gogh\"" .
_:b hasPainted starryNight .
u3 age "37"^^<http://www.w3.org/2001/XMLSchema#int> .
u4 label "bonjour"@fr .
u5 p o # trailing comment
`
	g, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 8 {
		t.Fatalf("got %d triples, want 8: %v", len(g), g)
	}
	if g[2].P.Value != RDFType {
		t.Errorf("rdf:type not expanded: %q", g[2].P.Value)
	}
	if g[3].O != NewLiteral(`Vincent van "Gogh"`) {
		t.Errorf("escaped literal wrong: %v", g[3].O)
	}
	if !g[4].S.IsBlank() || g[4].S.Value != "b" {
		t.Errorf("blank subject wrong: %v", g[4].S)
	}
	if g[5].O != NewLiteral("37") {
		t.Errorf("typed literal wrong: %v", g[5].O)
	}
	if g[6].O != NewLiteral("bonjour") {
		t.Errorf("lang literal wrong: %v", g[6].O)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"a b",       // two terms
		"a b c d e", // five terms
		"<unterminated b c",
		`a b "untermin`,
		`"lit" p o`, // literal subject
		"a _:b c",   // blank property
		"_: p o",    // empty blank label
		"<> p o",    // empty IRI
		". . .",
	}
	for _, in := range bad {
		if _, err := ParseString(in); err == nil {
			t.Errorf("ParseString(%q) should fail", in)
		}
	}
}

func TestParseLineBlank(t *testing.T) {
	if _, ok, err := ParseLine("   # only comment"); ok || err != nil {
		t.Errorf("comment line: ok=%v err=%v", ok, err)
	}
	if _, ok, err := ParseLine(""); ok || err != nil {
		t.Errorf("empty line: ok=%v err=%v", ok, err)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	g := Graph{
		T("s", "p", "o"),
		NewTriple(NewBlank("b1"), NewIRI("p"), NewLiteral(`with "quotes" and \slash`)),
		T("x", RDFType, "painter"),
	}
	var sb strings.Builder
	if err := Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("reparse: %v\noutput was:\n%s", err, sb.String())
	}
	if len(back) != len(g) {
		t.Fatalf("roundtrip length %d != %d", len(back), len(g))
	}
	for i := range g {
		if back[i] != g[i] {
			t.Errorf("triple %d: %v != %v", i, back[i], g[i])
		}
	}
}

func TestExpandShortenIRI(t *testing.T) {
	if ExpandIRI("rdf:type") != RDFType {
		t.Error("ExpandIRI rdf:type")
	}
	if ShortenIRI(RDFSSubClassOf) != "rdfs:subClassOf" {
		t.Error("ShortenIRI subClassOf")
	}
	if ExpandIRI("unknown") != "unknown" || ShortenIRI("unknown") != "unknown" {
		t.Error("unknown IRIs should pass through")
	}
}

// TestShortenIRIGate: the length and prefix gate in front of the map drops
// no vocabulary term and shortens nothing else — every vocabulary IRI and its
// one-byte-shorter, one-byte-longer and one-byte-changed neighbours.
func TestShortenIRIGate(t *testing.T) {
	for long, short := range longToShort {
		if got := ShortenIRI(long); got != short {
			t.Errorf("ShortenIRI(%q) = %q, want %q", long, got, short)
		}
		for _, near := range []string{long[:len(long)-1], long + "x", "X" + long[1:], "http://www.w3.org/"} {
			if got := ShortenIRI(near); got != near {
				t.Errorf("ShortenIRI(%q) = %q, want it unchanged", near, got)
			}
		}
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := NewSchema()
	s.AddSubClass("painting", "masterpiece")
	s.AddSubClass("masterpiece", "work")
	s.AddSubProperty("hasPainted", "hasCreated")
	s.AddDomain("hasPainted", "painter")
	s.AddRange("hasPainted", "painting")
	s.AddSubClass("painting", "masterpiece") // duplicate ignored

	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	classes := s.Classes()
	wantClasses := []string{"masterpiece", "painter", "painting", "work"}
	if len(classes) != len(wantClasses) {
		t.Fatalf("Classes = %v", classes)
	}
	for i := range classes {
		if classes[i] != wantClasses[i] {
			t.Fatalf("Classes = %v, want %v", classes, wantClasses)
		}
	}
	props := s.Properties()
	if len(props) != 2 || props[0] != "hasCreated" || props[1] != "hasPainted" {
		t.Fatalf("Properties = %v", props)
	}
	if got := s.SubClassesOf("masterpiece"); len(got) != 1 || got[0] != "painting" {
		t.Errorf("SubClassesOf = %v", got)
	}
	if got := s.SubPropertiesOf("hasCreated"); len(got) != 1 || got[0] != "hasPainted" {
		t.Errorf("SubPropertiesOf = %v", got)
	}
	if got := s.PropertiesWithDomain("painter"); len(got) != 1 || got[0] != "hasPainted" {
		t.Errorf("PropertiesWithDomain = %v", got)
	}
	if got := s.PropertiesWithRange("painting"); len(got) != 1 || got[0] != "hasPainted" {
		t.Errorf("PropertiesWithRange = %v", got)
	}
}

func TestSchemaClosurePaperExample(t *testing.T) {
	// Section 4.1: painting ⊑ masterpiece ⊑ work; hasPainted ⊑ hasCreated;
	// range(hasPainted)=painting, range(hasCreated)=masterpiece.
	s := NewSchema()
	s.AddSubClass("painting", "masterpiece")
	s.AddSubClass("masterpiece", "work")
	s.AddSubProperty("hasPainted", "hasCreated")
	s.AddRange("hasPainted", "painting")
	s.AddRange("hasCreated", "masterpiece")

	c := s.Closure()
	want := []Statement{
		{SubClass, "painting", "work"},       // transitivity
		{Range, "hasPainted", "masterpiece"}, // from the paper
		{Range, "hasPainted", "work"},        // from the paper
		{Range, "hasCreated", "work"},        // from the paper
	}
	for _, st := range want {
		if !c.Contains(st) {
			t.Errorf("closure misses %v", st)
		}
	}
	// Closure is idempotent.
	c2 := c.Closure()
	if c2.Len() != c.Len() {
		t.Errorf("closure not idempotent: %d then %d", c.Len(), c2.Len())
	}
}

func TestSchemaFromGraph(t *testing.T) {
	g := MustParse(`
painting rdfs:subClassOf picture .
isExpIn rdfs:subPropertyOf isLocatIn .
hasPainted rdfs:domain painter .
hasPainted rdfs:range painting .
u1 hasPainted starryNight .
`)
	s, err := SchemaFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if !s.Contains(Statement{SubClass, "painting", "picture"}) {
		t.Error("missing subclass statement")
	}
	// Schema statements on blank nodes are rejected.
	bad := Graph{NewTriple(NewBlank("b"), NewIRI(RDFSSubClassOf), NewIRI("c"))}
	if _, err := SchemaFromGraph(bad); err == nil {
		t.Error("blank-node schema statement should be rejected")
	}
}

func TestSchemaGraphRoundTrip(t *testing.T) {
	s := NewSchema()
	s.AddSubClass("a", "b")
	s.AddDomain("p", "a")
	g := s.Graph()
	back, err := SchemaFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("roundtrip %d != %d", back.Len(), s.Len())
	}
	for _, st := range s.Statements() {
		if !back.Contains(st) {
			t.Errorf("roundtrip misses %v", st)
		}
	}
}

func TestStatementKindString(t *testing.T) {
	if SubClass.String() != "rdfs:subClassOf" || Range.String() != "rdfs:range" {
		t.Error("StatementKind.String wrong")
	}
	if StatementKind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestIsSchemaProperty(t *testing.T) {
	if !IsSchemaProperty(RDFSDomain) || IsSchemaProperty(RDFType) {
		t.Error("IsSchemaProperty misclassifies")
	}
}
