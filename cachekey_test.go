package rdfviews

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
)

// TestCacheKeyGolden pins the bytes of plan-cache keys. The plan cache picks
// an LRU shard by hashing the key, so a key that changes bytes moves hit
// ratios and evictions even when it still identifies the same shapes: these
// keys and the corpus digest change only together with re-measured ratios.
func TestCacheKeyGolden(t *testing.T) {
	golden := []struct{ text, key string }{
		{paintersQuery, "lv:pre|(?1,#2,?2)(?1,#4,?3)(?3,#2,?4)H[?1,?4]|p[2]|h[?1,?4]"},
		{`q(Z, X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z)`,
			"lv:pre|(?1,#2,?2)(?1,#4,?3)(?3,#2,?4)H[?1,?4]|p[2]|h[?4,?1]"},
		{`q(A, B) :- t(A, hasCreated, B)`, "lv:pre|(?1,#14,?2)H[?1,?2]|p[]|h[?1,?2]"},
		{`q(X) :- t(X, rdf:type, artist)`, "lv:pre|(?1,#15,#16)H[?1]|p[]|h[?1]"},
		{`q(X, Y) :- t(u1, hasPainted, X), t(u2, hasPainted, Y)`,
			"lv:pre|(?1,#2,?2)(?3,#2,?4)H[?2,?4]|p[1,3]|h[?2,?4]"},
		{`q(B, A) :- t(S, hasPainted, A), t(S, hasPainted, B)`,
			"lv:pre|(?1,#2,?2)(?1,#2,?3)H[?2,?3]|p[]|h[?3,?2]"},
		{`q(X, X, u1) :- t(X, isParentOf, Y), t(Y, hasPainted, irises)`,
			"lv:pre|(?1,#2,?2)(?3,#4,?1)H[#1,?3]|p[2]|h[?3,?3,#1]"},
		{`SELECT ?y ?x WHERE { ?x hasPainted ?y . ?x isParentOf u2 }`,
			"lv:pre|(?1,#2,?2)(?1,#4,?3)H[?1,?2]|p[3]|h[?2,?1]"},
		{`q(K, A, E) :- t(A, p, B), t(B, p, C), t(C, p, D), t(D, p, E), t(E, p, F), t(F, p, G), t(G, p, H), t(H, p, I), t(I, p, J), t(J, p, K)`,
			"lv:pre|(?1,#17,?2)(?2,#17,?3)(?3,#17,?4)(?4,#17,?5)(?5,#17,?6)(?6,#17,?7)(?7,#17,?8)(?8,#17,?9)(?10,#17,?1)(?11,#17,?10)H[?11,?3,?9]|p[]|h[?9,?11,?3]"},
	}
	db := NewDatabase()
	db.MustLoadGraphString(paintersData)
	db.MustLoadSchemaString(serveSchema)
	// Parse everything first: the dictionary encodes rdf:type on demand.
	qs := make([]*cq.Query, len(golden))
	for i, g := range golden {
		q, _, err := parseServeQuery(db.st.Dict(), g.text)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	typeID, _ := db.st.Dict().LookupIRI(rdf.RDFType)
	for i, g := range golden {
		if got := liftForCache(qs[i], typeID, "lv:pre").key; got != g.key {
			t.Errorf("key of %q\n got: %s\nwant: %s", g.text, got, g.key)
		}
	}

	const typ = dict.ID(7)
	h := fnv.New64a()
	for _, q := range cacheKeyCorpus(typ) {
		h.Write([]byte(liftForCache(q, typ, "db:reform").key))
		h.Write([]byte{'\n'})
	}
	if got, want := h.Sum64(), uint64(0x79dd6bf006be12a1); got != want {
		t.Errorf("corpus key digest %#x, want %#x", got, want)
	}
}

// cacheKeyCorpus is a seeded corpus of valid queries over the first
// dictionary IDs: 1–4 atoms, constants and up to five variables anywhere in
// the body, heads a shuffled pick of body variables with a repeat or a
// constant now and then.
func cacheKeyCorpus(typeID dict.ID) []*cq.Query {
	rng := rand.New(rand.NewSource(26))
	consts := []dict.ID{typeID, 1, 2, 3, 4, 5, 6}
	term := func() cq.Term {
		if rng.Intn(3) == 0 {
			return cq.Const(consts[rng.Intn(len(consts))])
		}
		return cq.Var(1 + rng.Intn(5))
	}
	var out []*cq.Query
	for len(out) < 400 {
		atoms := make([]cq.Atom, 1+rng.Intn(4))
		for i := range atoms {
			atoms[i] = cq.Atom{term(), term(), term()}
		}
		q := cq.NewQuery(nil, atoms)
		vars := q.Vars()
		rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		q.Head = vars[:rng.Intn(len(vars)+1)]
		if len(q.Head) > 0 && rng.Intn(4) == 0 {
			q.Head = append(q.Head, q.Head[0])
		}
		if rng.Intn(5) == 0 {
			q.Head = append(q.Head, cq.Const(consts[rng.Intn(len(consts))]))
		}
		out = append(out, q)
	}
	return out
}
