package store

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
)

func sampleStore(t *testing.T) *Store {
	t.Helper()
	st := New()
	g := rdf.MustParse(`
u1 hasPainted starryNight .
u1 isParentOf u2 .
u2 hasPainted irises .
u2 hasPainted sunflowers .
u3 hasPainted guernica .
u1 rdf:type painter .
u2 rdf:type painter .
starryNight rdf:type painting .
`)
	if _, err := st.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	return st
}

func pat(st *Store, s, p, o string) Pattern {
	var out Pattern
	for i, v := range []string{s, p, o} {
		if v == "" {
			out[i] = Wildcard
			continue
		}
		id, ok := st.Dict().LookupIRI(v)
		if !ok {
			// Unknown constants can never match; use an ID beyond the dict.
			id = dict.ID(st.Dict().Len() + 1000)
		}
		out[i] = id
	}
	return out
}

func TestAddDedup(t *testing.T) {
	st := New()
	tr := st.Encode(rdf.T("a", "p", "b"))
	if !st.Add(tr) {
		t.Fatal("first Add should report new")
	}
	if st.Add(tr) {
		t.Fatal("second Add should report duplicate")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
	if !st.Contains(tr) {
		t.Error("Contains should find the triple")
	}
}

func TestAddGraphRejectsIllFormed(t *testing.T) {
	st := New()
	bad := rdf.Graph{rdf.NewTriple(rdf.NewLiteral("x"), rdf.NewIRI("p"), rdf.NewIRI("o"))}
	if _, err := st.AddGraph(bad); err == nil {
		t.Fatal("ill-formed triple should be rejected")
	}
}

func TestCountAllPatternShapes(t *testing.T) {
	st := sampleStore(t)
	cases := []struct {
		s, p, o string
		want    int
	}{
		{"", "", "", 8},
		{"u1", "", "", 3},
		{"", "hasPainted", "", 4},
		{"", "", "starryNight", 1},
		{"u1", "hasPainted", "", 1},
		{"u2", "", "irises", 1},
		{"", "rdf:type", "painter", 2},
		{"u1", "hasPainted", "starryNight", 1},
		{"u1", "hasPainted", "guernica", 0},
		{"nobody", "", "", 0},
	}
	for _, c := range cases {
		got := st.Count(pat(st, c.s, c.p, c.o))
		if got != c.want {
			t.Errorf("Count(%q,%q,%q) = %d, want %d", c.s, c.p, c.o, got, c.want)
		}
	}
}

func TestMatchAgainstNaiveFilter(t *testing.T) {
	// Property: for every pattern shape, Match agrees with a naive filter
	// over Triples(). This exercises all six permutation indexes.
	st := New()
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < 200; i++ {
		s := names[rng.Intn(len(names))]
		p := names[rng.Intn(len(names))]
		o := names[rng.Intn(len(names))]
		st.Add(st.Encode(rdf.T(s, p, o)))
	}
	ids := make([]dict.ID, len(names))
	for i, n := range names {
		ids[i], _ = st.Dict().LookupIRI(n)
	}
	for mask := 0; mask < 8; mask++ {
		for trial := 0; trial < 10; trial++ {
			var p Pattern
			for c := 0; c < 3; c++ {
				if mask&(1<<c) != 0 {
					p[c] = ids[rng.Intn(len(ids))]
				}
			}
			got := st.Match(p)
			var want []Triple
			for _, tr := range st.Triples() {
				ok := true
				for c := 0; c < 3; c++ {
					if p[c] != Wildcard && tr[c] != p[c] {
						ok = false
					}
				}
				if ok {
					want = append(want, tr)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("mask %b pattern %v: Match %d vs naive %d", mask, p, len(got), len(want))
			}
			if st.Count(p) != len(want) {
				t.Fatalf("mask %b: Count %d vs naive %d", mask, st.Count(p), len(want))
			}
			set := make(map[Triple]bool, len(got))
			for _, tr := range got {
				set[tr] = true
			}
			for _, tr := range want {
				if !set[tr] {
					t.Fatalf("Match missing %v", tr)
				}
			}
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	st := sampleStore(t)
	n := 0
	st.Scan(Pattern{}, func(Triple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestDistinctInColumn(t *testing.T) {
	st := sampleStore(t)
	painted := pat(st, "", "hasPainted", "")
	subs := st.DistinctInColumn(painted, S)
	if len(subs) != 3 { // u1, u2, u3
		t.Errorf("distinct painters = %d, want 3", len(subs))
	}
	objs := st.DistinctInColumn(painted, O)
	if len(objs) != 4 {
		t.Errorf("distinct paintings = %d, want 4", len(objs))
	}
	for i := 1; i < len(objs); i++ {
		if objs[i-1] >= objs[i] {
			t.Fatal("distinct IDs not sorted")
		}
	}
}

func TestColumnStats(t *testing.T) {
	st := sampleStore(t)
	if got := st.DistinctCount(P); got != 3 { // hasPainted, isParentOf, rdf:type
		t.Errorf("DistinctCount(P) = %d, want 3", got)
	}
	if w := st.AvgWidth(P); w <= 0 {
		t.Errorf("AvgWidth(P) = %v", w)
	}
	// Adding a triple invalidates cached stats.
	st.Add(st.Encode(rdf.T("x", "newProp", "y")))
	if got := st.DistinctCount(P); got != 4 {
		t.Errorf("DistinctCount(P) after add = %d, want 4", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	st := sampleStore(t)
	n := st.Len()
	cl := st.Clone()
	cl.Add(cl.Encode(rdf.T("new", "p", "o")))
	if st.Len() != n {
		t.Error("Clone add leaked into original")
	}
	if cl.Len() != n+1 {
		t.Error("Clone did not add")
	}
	if st.Dict() != cl.Dict() {
		t.Error("Clone should share dictionary")
	}
	// Original still answers counts correctly after clone mutation.
	if got := st.Count(pat(st, "", "hasPainted", "")); got != 4 {
		t.Errorf("original Count = %d", got)
	}
}

func TestGraphRoundTrip(t *testing.T) {
	st := sampleStore(t)
	g := st.Graph()
	st2 := New()
	if _, err := st2.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if st2.Len() != st.Len() {
		t.Fatalf("roundtrip %d != %d", st2.Len(), st.Len())
	}
}

func TestColumnName(t *testing.T) {
	if ColumnName(S) != "s" || ColumnName(P) != "p" || ColumnName(O) != "o" {
		t.Error("ColumnName wrong")
	}
	if ColumnName(7) == "" {
		t.Error("unknown column should stringify")
	}
}

func TestCountMatchesLenOfMatchProperty(t *testing.T) {
	st := sampleStore(t)
	max := dict.ID(st.Dict().Len())
	f := func(s, p, o uint16) bool {
		var pt Pattern
		pt[0] = dict.ID(s) % (max + 2)
		pt[1] = dict.ID(p) % (max + 2)
		pt[2] = dict.ID(o) % (max + 2)
		return st.Count(pt) == len(st.Match(pt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
