package cq

import (
	"math/rand"
	"sort"
	"testing"

	"rdfviews/internal/dict"
)

// CanonicalCode is the serving tier's plan-cache key: a collision across
// non-equivalent queries would silently return wrong answers, and any
// sensitivity to variable names or atom order would shatter the hit rate.
// These properties pin both directions over a randomized corpus.

// genQuery builds a random valid query: 1..5 atoms over a small pool of
// variables and constants, head a random subset of the body variables.
func genQuery(rng *rand.Rand) *Query {
	nAtoms := 1 + rng.Intn(5)
	term := func() Term {
		if rng.Intn(3) == 0 {
			return Const(dict.ID(1 + rng.Intn(4)))
		}
		return Var(1 + rng.Intn(4))
	}
	atoms := make([]Atom, nAtoms)
	for i := range atoms {
		atoms[i] = Atom{term(), term(), term()}
	}
	var bodyVars []Term
	seen := map[Term]bool{}
	for _, a := range atoms {
		for _, t := range a {
			if t.IsVar() && !seen[t] {
				seen[t] = true
				bodyVars = append(bodyVars, t)
			}
		}
	}
	var head []Term
	for _, v := range bodyVars {
		if rng.Intn(2) == 0 {
			head = append(head, v)
		}
	}
	return NewQuery(head, atoms)
}

// scramble returns q under a random bijective variable renaming and a random
// atom permutation — the two transformations the code must be blind to.
func scramble(q *Query, rng *rand.Rand) *Query {
	var vars []Term
	seen := map[Term]bool{}
	for _, a := range q.Atoms {
		for _, t := range a {
			if t.IsVar() && !seen[t] {
				seen[t] = true
				vars = append(vars, t)
			}
		}
	}
	// Distinct fresh numbers, shuffled: a random bijection.
	nums := rng.Perm(len(vars) + 20)
	m := make(map[Term]Term, len(vars))
	for i, v := range vars {
		m[v] = Var(nums[i] + 1)
	}
	out := q.RenameVars(m)
	rng.Shuffle(len(out.Atoms), func(i, j int) {
		out.Atoms[i], out.Atoms[j] = out.Atoms[j], out.Atoms[i]
	})
	return out
}

// TestCanonicalCodeInvariance checks both head modes for invariance under
// renaming and atom order, and set mode against the oracle: the same code
// byte for byte and the same numbering, which plan-cache keys are built from.
func TestCanonicalCodeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		q := genQuery(rng)
		code, ordered := q.CanonicalCode(), q.OrderedCode()
		assertMatchesOracle(t, q)
		for j := 0; j < 3; j++ {
			s := scramble(q, rng)
			if got := s.CanonicalCode(); got != code {
				t.Fatalf("iter %d: code changed under renaming/permutation\n  q:  %v -> %s\n  s:  %v -> %s",
					i, q, code, s, got)
			}
			if got := s.OrderedCode(); got != ordered {
				t.Fatalf("iter %d: ordered code changed under renaming/permutation\n  q:  %v -> %s\n  s:  %v -> %s",
					i, q, ordered, s, got)
			}
			assertMatchesOracle(t, s)
		}
	}
}

// assertMatchesOracle checks the set-mode labeling against the oracle's:
// same code, same body prefix, same number for every variable.
func assertMatchesOracle(t *testing.T, q *Query) {
	t.Helper()
	want, m := oracleCanonicalize(q)
	lab := q.Label(SetHead)
	if lab.Code != want {
		t.Fatalf("set code differs from the oracle for %v\n  got:  %s\n  want: %s", q, lab.Code, want)
	}
	if body, _ := oracleCanonicalize(&Query{Atoms: q.Atoms}); lab.Code[:lab.BodyLen]+"H[]" != body {
		t.Fatalf("body prefix %q of %v is not the oracle's body-only code %q", lab.Code[:lab.BodyLen], q, body)
	}
	if len(lab.Vars) != len(m) {
		t.Fatalf("numbering of %v has %d variables, oracle %d", q, len(lab.Vars), len(m))
	}
	for v, c := range m {
		if lab.Num(v) != c.VarNum() {
			t.Fatalf("numbering of %v: %v is %d, oracle %d", q, v, lab.Num(v), c.VarNum())
		}
	}
}

// headNormalized reorders (and dedups) the head into canonical-number order.
// CanonicalCode compares heads as sets, so same-code queries are equivalent
// only modulo head column order — normalizing both sides makes Equivalent
// (which is positional) the right oracle. Ordered codes need no such
// normalization.
func headNormalized(q *Query) *Query {
	lab := q.Label(SetHead)
	out := q.Clone()
	seen := map[Term]bool{}
	head := out.Head[:0]
	for _, h := range out.Head {
		if !seen[h] {
			seen[h] = true
			head = append(head, h)
		}
	}
	out.Head = head
	sortHead := func(i, j int) bool {
		a, b := out.Head[i], out.Head[j]
		an, bn := int64(a), int64(b)
		if a.IsVar() {
			an = -int64(lab.Num(a))
		}
		if b.IsVar() {
			bn = -int64(lab.Num(b))
		}
		return an > bn
	}
	sort.Slice(out.Head, sortHead)
	return out
}

func TestCanonicalCodeNoCollisions(t *testing.T) {
	// Same code must imply equivalence up to head column order (codes key
	// cached plans and compare heads as sets; a body collision is a wrong
	// answer). Group a corpus by code and verify every same-code pair is
	// Equivalent after head normalization — distinct-code pairs carry no
	// claim (codes are finer than semantic equivalence: redundant atoms
	// change the code). Same ordered code must imply positional equivalence
	// as it stands: that is what lets a union drop the second term.
	rng := rand.New(rand.NewSource(11))
	groups := map[string][]*Query{}
	ordered := map[string][]*Query{}
	for i := 0; i < 3000; i++ {
		q := genQuery(rng)
		code := q.CanonicalCode()
		groups[code] = append(groups[code], q)
		// A scrambled copy with its head reversed joins q's ordered group
		// only when the reversal is a symmetry of q.
		s := scramble(q, rng)
		for l, r := 0, len(s.Head)-1; l < r; l, r = l+1, r-1 {
			s.Head[l], s.Head[r] = s.Head[r], s.Head[l]
		}
		for _, x := range []*Query{q, s} {
			c := x.OrderedCode()
			ordered[c] = append(ordered[c], x)
		}
	}
	for _, tc := range []struct {
		groups map[string][]*Query
		norm   func(*Query) *Query
	}{
		{groups, headNormalized},
		{ordered, func(q *Query) *Query { return q }},
	} {
		checked := 0
	group:
		for code, qs := range tc.groups {
			for i := 1; i < len(qs); i++ {
				if !Equivalent(tc.norm(qs[0]), tc.norm(qs[i])) {
					t.Fatalf("collision: same code %q for non-equivalent queries\n  %v\n  %v", code, qs[0], qs[i])
				}
				checked++
				if checked > 500 {
					break group // equivalence is NP-complete; bound the budget
				}
			}
		}
		if len(tc.groups) < 100 {
			t.Fatalf("corpus degenerate: only %d distinct codes", len(tc.groups))
		}
	}
}

func TestCanonicalCodeHeadIsSetLike(t *testing.T) {
	// Documented contract: heads compare as sets. The serving cache layers
	// its own positional head suffix on top of this — pin the base behavior
	// so a change there is caught.
	x, y := Var(1), Var(2)
	p := Const(dict.ID(2))
	a := NewQuery([]Term{x, y}, []Atom{{x, p, y}})
	b := NewQuery([]Term{y, x}, []Atom{{x, p, y}})
	if a.CanonicalCode() != b.CanonicalCode() {
		t.Fatalf("head order changed the code")
	}
	// Ordered mode keeps the two apart, but not a head permutation that is a
	// symmetry of the body, whichever order the atoms are listed in.
	if a.OrderedCode() == b.OrderedCode() {
		t.Fatalf("head order did not change the ordered code")
	}
	s, p2, p3 := Var(3), Const(dict.ID(3)), Const(dict.ID(4))
	sym := NewQuery([]Term{x, y}, []Atom{{s, p, x}, {s, p, y}})
	for _, q := range []*Query{
		NewQuery([]Term{x, y}, []Atom{{s, p, y}, {s, p, x}}),
		NewQuery([]Term{y, x}, []Atom{{s, p, x}, {s, p, y}}),
	} {
		if q.OrderedCode() != sym.OrderedCode() {
			t.Fatalf("symmetric query: ordered codes differ: %v %s vs %v %s", q, q.OrderedCode(), sym, sym.OrderedCode())
		}
	}
	// The mirror image of a union term over two properties is another term.
	m1 := NewQuery([]Term{x, y}, []Atom{{s, p2, x}, {s, p3, y}})
	m2 := NewQuery([]Term{x, y}, []Atom{{s, p3, x}, {s, p2, y}})
	if m1.CanonicalCode() != m2.CanonicalCode() || m1.OrderedCode() == m2.OrderedCode() {
		t.Fatalf("mirror images: set codes must agree and ordered codes differ")
	}
}

// FuzzCanonicalCode drives the invariance property from fuzzer-chosen bytes:
// the input seeds the query generator and the scrambling, so new coverage
// explores query shapes the fixed-seed corpus missed.
func FuzzCanonicalCode(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(99))
	f.Add(int64(-7), int64(0))
	f.Fuzz(func(t *testing.T, seed, scrambleSeed int64) {
		q := genQuery(rand.New(rand.NewSource(seed)))
		code := q.CanonicalCode()
		s := scramble(q, rand.New(rand.NewSource(scrambleSeed)))
		if got := s.CanonicalCode(); got != code {
			t.Fatalf("code not invariant: %q vs %q for %v / %v", code, got, q, s)
		}
		if a, b := q.OrderedCode(), s.OrderedCode(); a != b {
			t.Fatalf("ordered code not invariant: %q vs %q for %v / %v", a, b, q, s)
		}
		assertMatchesOracle(t, q)
		assertMatchesOracle(t, s)
		// The canonical form itself must be a fixed point.
		canon := q.CanonicalizeVars()
		if canon.CanonicalCode() != code {
			t.Fatalf("CanonicalizeVars changed the code: %q vs %q", canon.CanonicalCode(), code)
		}
	})
}
