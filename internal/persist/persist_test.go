package persist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

func TestDatabaseImageRoundTrip(t *testing.T) {
	st := store.New()
	st.MustAddGraph(rdf.MustParse(`
u1 hasPainted starryNight .
u2 name "Vincent" .
_:b knows u1 .
`))
	schema := rdf.NewSchema()
	schema.AddSubClass("painting", "picture")
	schema.AddDomain("hasPainted", "painter")

	var buf bytes.Buffer
	if err := SaveDatabase(&buf, st, schema); err != nil {
		t.Fatal(err)
	}
	st2, schema2, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != st.Len() {
		t.Fatalf("triples %d != %d", st2.Len(), st.Len())
	}
	for _, tr := range st.Triples() {
		if !st2.Contains(tr) {
			t.Errorf("missing triple %v", tr)
		}
	}
	if schema2.Len() != schema.Len() {
		t.Fatalf("schema %d != %d", schema2.Len(), schema.Len())
	}
	// Dictionary IDs are preserved: same terms decode identically.
	for id := dict.ID(1); id <= dict.ID(st.Dict().Len()); id++ {
		a := st.Dict().MustDecode(id)
		b := st2.Dict().MustDecode(id)
		if a != b {
			t.Fatalf("ID %d decodes differently: %v vs %v", id, a, b)
		}
	}
}

func TestSaveDatabaseNilSchema(t *testing.T) {
	st := store.New()
	st.MustAddGraph(rdf.MustParse("a p b ."))
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, st, nil); err != nil {
		t.Fatal(err)
	}
	_, schema, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if schema.Len() != 0 {
		t.Error("nil schema should load empty")
	}
}

func TestBundleRoundTripAllPlanNodes(t *testing.T) {
	st := store.New()
	st.MustAddGraph(rdf.MustParse(`
u1 hasPainted starryNight .
u1 isParentOf u2 .
u2 hasPainted irises .
`))
	p := cq.NewParser(st.Dict())
	v1 := p.MustParseQuery("q(X, Y) :- t(X, hasPainted, Y)")
	p.ResetNames()
	v2 := p.MustParseQuery("q(X, Y) :- t(X, isParentOf, Y)")
	views := map[algebra.ViewID]*cq.Query{1: v1, 2: v2}
	extents := map[algebra.ViewID]*engine.Relation{}
	for id, v := range views {
		rel, err := engine.Materialize(st, v)
		if err != nil {
			t.Fatal(err)
		}
		extents[id] = rel
	}
	x, y, z := v1.Head[0], v1.Head[1], v2.Head[1]
	// A plan exercising every node type.
	plan := algebra.NewProject(
		algebra.NewSelect(
			algebra.NewJoin(
				algebra.NewScan(2, []cq.Term{x, z}),
				algebra.NewUnion(
					algebra.NewScan(1, []cq.Term{z, y}),
					algebra.NewScan(1, []cq.Term{z, y}),
				),
			),
			algebra.Cond{Left: x, Right: x},
		),
		[]cq.Term{x, y},
	)
	queries := []*cq.Query{{Head: []cq.Term{x, y}, Atoms: v1.Atoms}}
	b, err := NewBundle(st.Dict(), []string{queries[0].Format(st.Dict())}, queries, []algebra.Plan{plan}, views, engine.MapResolver(extents))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := execute(b.Plans[0], engine.MapResolver(extents))
	if err != nil {
		t.Fatal(err)
	}
	got, err := execute(back.Plans[0], back.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		t.Fatalf("bundle answers changed across roundtrip: %d vs %d rows", got.Len(), want.Len())
	}
	if len(back.Plans) != 1 || len(back.Queries) != 1 || len(back.QueryTexts) != 1 || len(back.Views) != 2 {
		t.Error("bundle metadata wrong")
	}
}

func TestNewBundleMissingExtent(t *testing.T) {
	st := store.New()
	p := cq.NewParser(st.Dict())
	v := p.MustParseQuery("q(X) :- t(X, p, o)")
	_, err := NewBundle(st.Dict(), nil, nil, nil,
		map[algebra.ViewID]*cq.Query{1: v}, engine.MapResolver(map[algebra.ViewID]*engine.Relation{}))
	if err == nil {
		t.Fatal("missing extent accepted")
	}
}

// TestLoadVersion1DatabaseImage reads an image in the pre-shard layout (flat
// Triples list, no Shards/Sections fields) — the backward-compatibility
// contract of the version 2 reader.
func TestLoadVersion1DatabaseImage(t *testing.T) {
	st := store.New()
	st.MustAddGraph(rdf.MustParse(`
u1 hasPainted starryNight .
u1 isParentOf u2 .
u2 hasPainted irises .
`))
	img := databaseImage{
		Version: 1,
		Terms:   st.Dict().Terms(),
		Triples: st.Triples(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatalf("v1 image rejected: %v", err)
	}
	if got.NumShards() != 1 {
		t.Fatalf("v1 image restored %d shards, want 1", got.NumShards())
	}
	if got.Len() != st.Len() {
		t.Fatalf("v1 image restored %d triples, want %d", got.Len(), st.Len())
	}
	for _, tr := range st.Triples() {
		if !got.Contains(tr) {
			t.Fatalf("v1 image lost %v", tr)
		}
	}
}

// TestShardedDatabaseRoundTrip checks that a sharded store snapshots into
// per-shard sections and restores with its partitioning intact.
func TestShardedDatabaseRoundTrip(t *testing.T) {
	st := store.NewSharded(4)
	d := st.Dict()
	for i := 0; i < 500; i++ {
		st.Add(store.Triple{
			d.EncodeIRI(fmt.Sprintf("s%d", i%97)),
			d.EncodeIRI(fmt.Sprintf("p%d", i%7)),
			d.EncodeIRI(fmt.Sprintf("o%d", i)),
		})
	}
	// Some deletions, so the sections are written from a snapshot with holes.
	for _, tr := range st.Triples()[:50] {
		st.Remove(tr)
	}
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, st, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != 4 {
		t.Fatalf("restored %d shards, want 4", got.NumShards())
	}
	if got.Len() != st.Len() {
		t.Fatalf("restored %d triples, want %d", got.Len(), st.Len())
	}
	for _, tr := range st.Triples() {
		if !got.Contains(tr) {
			t.Fatalf("round trip lost %v", tr)
		}
	}
	// The unsupported-version guard still trips.
	bad := databaseImage{Version: FormatVersion + 1}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&bad); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDatabase(&buf); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestDualDatabaseRoundTrip checks that a dual-partitioned store round-trips
// through the version 3 format: the image carries only subject-side sections
// plus the placement metadata, and the load rebuilds the object-side replicas
// through write routing.
func TestDualDatabaseRoundTrip(t *testing.T) {
	st := store.NewDual(4, 4)
	d := st.Dict()
	for i := 0; i < 500; i++ {
		st.Add(store.Triple{
			d.EncodeIRI(fmt.Sprintf("s%d", i%97)),
			d.EncodeIRI(fmt.Sprintf("p%d", i%7)),
			d.EncodeIRI(fmt.Sprintf("o%d", i%41)),
		})
	}
	for _, tr := range st.Triples()[:50] {
		st.Remove(tr)
	}
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, st, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if pl := got.Placement(); pl.SubjectShards != 4 || pl.ObjectShards != 4 {
		t.Fatalf("restored placement %+v, want 4/4 dual", pl)
	}
	if got.Len() != st.Len() {
		t.Fatalf("restored %d triples, want %d", got.Len(), st.Len())
	}
	for _, tr := range st.Triples() {
		if !got.Contains(tr) {
			t.Fatalf("round trip lost %v", tr)
		}
	}
	// The rebuilt object side answers object-bound patterns identically to
	// the source store (and it is what serves them, per the placement).
	for i := 0; i < 41; i++ {
		pat := store.Pattern{0, 0, d.EncodeIRI(fmt.Sprintf("o%d", i))}
		if w, g := st.Count(pat), got.Count(pat); g != w {
			t.Fatalf("object-bound count o%d: got %d, want %d", i, g, w)
		}
	}
}

// TestLoadVersion2DatabaseImage reads an image in the exact pre-placement v2
// layout — a struct without the ObjectShards field — proving version 3
// readers still load version 2 artifacts, as a subject-only store.
func TestLoadVersion2DatabaseImage(t *testing.T) {
	st := store.NewSharded(4)
	st.MustAddGraph(rdf.MustParse(`
u1 hasPainted starryNight .
u1 isParentOf u2 .
u2 hasPainted irises .
`))
	type v2Image struct {
		Version  int
		Terms    []rdf.Term
		Triples  []store.Triple
		Schema   []rdf.Statement
		Shards   int
		Sections [][]store.Triple
	}
	img := v2Image{
		Version: 2,
		Terms:   st.Dict().Terms(),
		Shards:  st.NumShards(),
	}
	img.Sections = make([][]store.Triple, st.NumShards())
	for i := range img.Sections {
		img.Sections[i] = st.ShardTriples(i)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatalf("v2 image rejected: %v", err)
	}
	if got.NumShards() != 4 {
		t.Fatalf("v2 image restored %d shards, want 4", got.NumShards())
	}
	if pl := got.Placement(); pl.Dual() {
		t.Fatalf("v2 image restored dual placement %+v, want subject-only", pl)
	}
	if got.Len() != st.Len() {
		t.Fatalf("v2 image restored %d triples, want %d", got.Len(), st.Len())
	}
	for _, tr := range st.Triples() {
		if !got.Contains(tr) {
			t.Fatalf("v2 image lost %v", tr)
		}
	}
}

// TestLoadDatabaseRejectsCorruptImages hands LoadDatabase images that decode
// but cannot be a store. Each must come back as ErrCorruptImage before any
// store is built — not as an index panic in dict.MustDecode when an answer is
// decoded later.
func TestLoadDatabaseRejectsCorruptImages(t *testing.T) {
	terms := []rdf.Term{rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("b")}
	ok := store.Triple{1, 2, 3}
	v3 := func(shards, objectShards int, sections ...[]store.Triple) databaseImage {
		return databaseImage{Version: 3, Terms: terms, Shards: shards, ObjectShards: objectShards, Sections: sections}
	}
	cases := []struct {
		name string
		img  databaseImage
	}{
		{"ID 0", v3(1, 0, []store.Triple{ok, {1, 0, 3}})},
		{"ID past the dictionary", v3(1, 0, []store.Triple{ok, {1, 2, 4}})},
		{"negative ID", v3(1, 0, []store.Triple{{-1, 2, 3}})},
		{"ID past the dictionary in a v1 image", databaseImage{Version: 1, Terms: terms, Triples: []store.Triple{{9, 2, 3}}}},
		{"fewer sections than shards", v3(2, 0, []store.Triple{ok})},
		{"more sections than shards", v3(1, 0, []store.Triple{ok}, nil)},
		{"no subject shard", v3(0, 0)},
		{"subject shards past the cap", v3(store.MaxShards+1, 0, make([][]store.Triple, store.MaxShards+1)...)},
		{"negative object shards", v3(1, -1, []store.Triple{ok})},
		{"object shards past the cap", v3(1, store.MaxShards+1, []store.Triple{ok})},
		{"a term listed twice", databaseImage{Version: 3, Terms: append(terms[:3:3], terms[0]), Shards: 1, Sections: [][]store.Triple{{ok}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&tc.img); err != nil {
				t.Fatal(err)
			}
			st, _, err := LoadDatabase(&buf)
			if !errors.Is(err, ErrCorruptImage) {
				t.Fatalf("LoadDatabase = (%v, %v), want ErrCorruptImage", st, err)
			}
		})
	}
}

// TestLoadBundleRejectsCorruptBundles hands LoadBundle bundles that decode but
// cannot be answered from. Each must come back as ErrCorruptImage at load —
// not as an index panic when a row is read, nor as a wrong term when one is
// decoded, at answer time.
func TestLoadBundleRejectsCorruptBundles(t *testing.T) {
	terms := []rdf.Term{rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("b")}
	x, y := cq.Var(1), cq.Var(2)
	view := func(id algebra.ViewID, rows ...engine.Row) BundleView {
		return BundleView{ID: id, Cols: []cq.Term{x, y}, Rows: rows}
	}
	bundle := func(plan algebra.Plan, views ...BundleView) *Bundle {
		return &Bundle{Version: FormatVersion, Terms: terms, Plans: []algebra.Plan{plan}, Views: views}
	}
	scan1 := algebra.NewScan(1, []cq.Term{x, y})
	join := algebra.NewJoin(scan1, algebra.NewScan(2, []cq.Term{y, x}))
	cases := []struct {
		name string
		b    *Bundle
	}{
		{"short row", bundle(scan1, view(1, engine.Row{1, 3}, engine.Row{1}))},
		{"ID 0", bundle(scan1, view(1, engine.Row{1, 0}))},
		{"ID past the dictionary", bundle(scan1, view(1, engine.Row{1, 4}))},
		{"missing view", bundle(join, view(1, engine.Row{1, 3}))},
		{"duplicate view", bundle(scan1, view(1, engine.Row{1, 3}), view(1, engine.Row{3, 1}))},
		{"a term listed twice", &Bundle{Version: FormatVersion, Terms: append(terms[:3:3], terms[0]),
			Plans: []algebra.Plan{scan1}, Views: []BundleView{view(1, engine.Row{1, 3})}}},
		{"query term past the dictionary", withQueries(bundle(scan1, view(1, engine.Row{1, 3})),
			&cq.Query{Head: []cq.Term{x}, Atoms: []cq.Atom{{x, cq.Const(4), y}}})},
		{"query head variable not in the body", withQueries(bundle(scan1, view(1, engine.Row{1, 3})),
			&cq.Query{Head: []cq.Term{cq.Var(3)}, Atoms: []cq.Atom{{x, cq.Const(2), y}}})},
		{"more queries than rewritings", withQueries(bundle(scan1, view(1, engine.Row{1, 3})),
			&cq.Query{Head: []cq.Term{x}, Atoms: []cq.Atom{{x, cq.Const(2), y}}},
			&cq.Query{Head: []cq.Term{y}, Atoms: []cq.Atom{{x, cq.Const(2), y}}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.b.Save(&buf); err != nil {
				t.Fatal(err)
			}
			b, err := LoadBundle(&buf)
			if !errors.Is(err, ErrCorruptImage) {
				t.Fatalf("LoadBundle = (%v, %v), want ErrCorruptImage", b, err)
			}
		})
	}
	// The same shapes, well formed, load.
	var buf bytes.Buffer
	ok := withQueries(bundle(join, view(1, engine.Row{1, 3}), view(2, engine.Row{3, 1})),
		&cq.Query{Head: []cq.Term{x, y}, Atoms: []cq.Atom{{x, cq.Const(2), y}}})
	if err := ok.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(&buf); err != nil {
		t.Fatalf("well-formed bundle rejected: %v", err)
	}
}

// withQueries ships the workload queries qs in b.
func withQueries(b *Bundle, qs ...*cq.Query) *Bundle {
	b.Queries = qs
	return b
}

// TestLoadDatabaseRoutesByHash loads an image whose sections hold the right
// triples in the wrong sections: every triple must still land in the shard
// its subject hashes to, on both sides, in section order.
func TestLoadDatabaseRoutesByHash(t *testing.T) {
	st := store.NewDual(3, 2)
	d := st.Dict()
	for i := 0; i < 300; i++ {
		st.Add(store.Triple{
			d.EncodeIRI(fmt.Sprintf("s%d", i%61)),
			d.EncodeIRI(fmt.Sprintf("p%d", i%5)),
			d.EncodeIRI(fmt.Sprintf("o%d", i%37)),
		})
	}
	img := databaseImage{Version: FormatVersion, Terms: d.Terms(), Shards: 3, ObjectShards: 2,
		Sections: [][]store.Triple{st.ShardTriples(2), st.ShardTriples(0), st.ShardTriples(1)}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !slices.Equal(got.ShardTriples(i), st.ShardTriples(i)) {
			t.Fatalf("shard %d restored %d triples, want the %d its subjects hash to, in order", i, len(got.ShardTriples(i)), len(st.ShardTriples(i)))
		}
	}
	for i := 0; i < 37; i++ {
		pat := store.Pattern{0, 0, d.EncodeIRI(fmt.Sprintf("o%d", i))}
		if w, g := st.Count(pat), got.Count(pat); g != w {
			t.Fatalf("object-bound count o%d: got %d, want %d", i, g, w)
		}
	}
}

// execute runs a rewriting plan through engine.ExecuteStream and collects it.
func execute(p algebra.Plan, resolve engine.ViewResolver) (*engine.Relation, error) {
	rs, err := engine.ExecuteStream(p, resolve, engine.ExecOptions{})
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}
