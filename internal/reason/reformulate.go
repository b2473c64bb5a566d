package reason

import (
	"fmt"
	"slices"

	"rdfviews/internal/cq"
)

// DefaultMaxUnionTerms bounds the size of reformulations. Theorem 4.1 bounds
// the output by (2|S|²)^m union terms, which is astronomically large for
// variable-property queries over sizeable schemas; the limit turns that
// blow-up into a clean error instead of an out-of-memory condition.
const DefaultMaxUnionTerms = 200000

// ErrTooManyUnionTerms is returned (wrapped) when a reformulation exceeds
// the configured union-term limit.
var ErrTooManyUnionTerms = fmt.Errorf("reason: reformulation exceeds the union-term limit")

// Reformulate implements Algorithm 1 of the paper: it rewrites the
// conjunctive query q into a union of conjunctive queries ucq such that, for
// any database D associated with schema S,
//
//	evaluate(q, saturate(D, S)) = evaluate(ucq, D)
//
// (Theorem 4.2). The six rules of Figure 2 are applied backward on query
// atoms to a fixpoint; union terms are deduplicated up to variable renaming,
// which also guarantees termination (Theorem 4.1).
//
// maxTerms ≤ 0 selects DefaultMaxUnionTerms; it bounds the whole union.
//
// Nothing runs this product form over the store: queries and views run
// ReformulateAtoms' per-atom form, which has the same answers. It is kept for
// pre-reformulation's initial state (one view per union term), for the
// one-atom counts of reformulated statistics, and for the paper's
// experiments and the benchmark harness.
func Reformulate(q *cq.Query, s *Schema, maxTerms int) (*cq.UCQ, error) {
	if maxTerms <= 0 {
		maxTerms = DefaultMaxUnionTerms
	}
	// Fresh variables for rules 3 and 4 (∃X t(s,p,X) / ∃X t(X,p,o)).
	nextVar := q.MaxVarNum()
	freshVar := func() cq.Term {
		nextVar++
		return cq.Var(nextVar)
	}

	ucq := cq.NewUCQ(q)
	queue := []*cq.Query{q}
	emit := func(nq *cq.Query) error {
		if ucq.Add(nq) {
			if ucq.Len() > maxTerms {
				return fmt.Errorf("%w: more than %d terms for query with %d atoms and |S|=%d",
					ErrTooManyUnionTerms, maxTerms, len(q.Atoms), s.Len())
			}
			queue = append(queue, nq)
		}
		return nil
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for gi, g := range cur.Atoms {
			// Rules 1–4 rewrite the atom alone.
			if err := s.rewriteAtom(g, freshVar, func(a cq.Atom) error {
				return emit(cur.ReplaceAtom(gi, a))
			}); err != nil {
				return nil, err
			}
			// Rules 5–6 bind a variable throughout the query.
			if err := s.bindVariable(cur, g, emit); err != nil {
				return nil, err
			}
		}
	}
	return ucq, nil
}

// rewriteAtom applies rules 1–4 of Figure 2 backward to the atom g, calling
// emit with each one-step rewrite in the order Algorithm 1 visits them. These
// rules are atom-local: each replaces g by one alternative atom and leaves the
// rest of the query alone. fresh supplies the existential variable of rules 3
// and 4.
func (s *Schema) rewriteAtom(g cq.Atom, fresh func() cq.Term, emit func(cq.Atom) error) error {
	if subj, c2, ok := s.typeAtomClass(g); ok {
		// Rule 1: t(s, rdf:type, c2) ⇐ t(s, rdf:type, c1), c1 ⊑ c2 ∈ S.
		for _, c1 := range s.subClassesOf[c2] {
			if err := emit(cq.Atom{subj, cq.Const(s.TypeID), cq.Const(c1)}); err != nil {
				return err
			}
		}
		// Rule 3: t(s, rdf:type, c) ⇐ ∃X t(s, p, X), p domain c ∈ S.
		for _, p := range s.domainProps[c2] {
			if err := emit(cq.Atom{subj, cq.Const(p), fresh()}); err != nil {
				return err
			}
		}
		// Rule 4: t(o, rdf:type, c) ⇐ ∃X t(X, p, o), p range c ∈ S.
		for _, p := range s.rangeProps[c2] {
			if err := emit(cq.Atom{fresh(), cq.Const(p), subj}); err != nil {
				return err
			}
		}
	}
	// Rule 2: t(s, p2, o) ⇐ t(s, p1, o), p1 ⊑ p2 ∈ S.
	if g[1].IsConst() {
		for _, p1 := range s.subPropsOf[g[1].ConstID()] {
			if err := emit(cq.Atom{g[0], cq.Const(p1), g[2]}); err != nil {
				return err
			}
		}
	}
	return nil
}

// bindVariable applies rules 5–6 to the atom g of cur, calling emit with each
// query in which g's class or property variable is bound throughout.
func (s *Schema) bindVariable(cur *cq.Query, g cq.Atom, emit func(*cq.Query) error) error {
	// Rule 5: t(s, rdf:type, X) with X a variable: bind X to every class of S
	// throughout the query.
	if g[1].IsConst() && g[1].ConstID() == s.TypeID && g[2].IsVar() {
		for _, c := range s.Classes {
			if err := emit(cur.Substitute(g[2], cq.Const(c))); err != nil {
				return err
			}
		}
	}
	// Rule 6: t(s, X, o) with X a variable in property position: bind X to
	// every property of S, and to rdf:type.
	if g[1].IsVar() {
		for _, p := range s.Properties {
			if err := emit(cur.Substitute(g[1], cq.Const(p))); err != nil {
				return err
			}
		}
		if err := emit(cur.Substitute(g[1], cq.Const(s.TypeID))); err != nil {
			return err
		}
	}
	return nil
}

// binds reports whether rule 5 or 6 applies to the atom.
func (s *Schema) binds(g cq.Atom) bool {
	return g[1].IsVar() || (g[1].ConstID() == s.TypeID && g[2].IsVar())
}

// ReformulateAtoms is Algorithm 1 factored per atom, the form every query
// and view runs in over the explicit store: Reformulate's union equals, up to
// variable renaming, the set of queries obtained by replacing every atom of
// a member by one of its alternatives (cq.UCQ.Alts).
//
// The members are q's closure under rules 5–6 alone, deduplicated up to
// renaming; a query with no class or property variable is its own single
// member, and a nil schema gives q alone, with no alternatives. Alts[m][i]
// lists the alternatives of atom i of member m: its closure under rules 1–4,
// Alts[m][i][0] being the atom itself. Rules 1–4 rewrite one atom into one
// atom, so an alternative keeps every variable of its atom and adds at most
// one existential variable, numbered above q's variables and distinct per
// atom index; alternatives are deduplicated up to renaming of that variable.
//
// maxTerms (≤ 0: DefaultMaxUnionTerms) bounds the number of members and the
// alternatives of any one atom, not their product, which is what Reformulate
// bounds.
func ReformulateAtoms(q *cq.Query, s *Schema, maxTerms int) (*cq.UCQ, error) {
	if s == nil {
		return &cq.UCQ{Queries: []*cq.Query{q}}, nil
	}
	if maxTerms <= 0 {
		maxTerms = DefaultMaxUnionTerms
	}
	tooMany := func() error {
		return fmt.Errorf("%w: more than %d terms for query with %d atoms and |S|=%d",
			ErrTooManyUnionTerms, maxTerms, len(q.Atoms), s.Len())
	}
	u := &cq.UCQ{Queries: []*cq.Query{q}}
	if slices.ContainsFunc(q.Atoms, s.binds) {
		u = cq.NewUCQ(q)
		for next := 0; next < len(u.Queries); next++ {
			cur := u.Queries[next]
			for _, g := range cur.Atoms {
				if err := s.bindVariable(cur, g, func(nq *cq.Query) error {
					if u.Add(nq) && u.Len() > maxTerms {
						return tooMany()
					}
					return nil
				}); err != nil {
					return nil, err
				}
			}
		}
	}

	// Substitution only binds variables, so every member's variables are q's.
	base := q.MaxVarNum()
	type atomAt struct {
		a cq.Atom
		i int
	}
	memo := make(map[atomAt][]cq.Atom)
	u.Alts = make([][][]cq.Atom, u.Len())
	for m, mq := range u.Queries {
		u.Alts[m] = make([][]cq.Atom, len(mq.Atoms))
		for i, g := range mq.Atoms {
			k := atomAt{g, i}
			as, ok := memo[k]
			if !ok {
				var err error
				if as, err = s.alternatives(g, cq.Var(base+1+i), maxTerms); err != nil {
					return nil, tooMany()
				}
				memo[k] = as
			}
			u.Alts[m][i] = as
		}
	}
	return u, nil
}

// alternatives closes the atom g under rules 1–4, with fresh as the
// existential variable of every rule 3 or 4 rewrite: the first element is g,
// the rest are distinct. It fails with ErrTooManyUnionTerms past maxTerms.
func (s *Schema) alternatives(g cq.Atom, fresh cq.Term, maxTerms int) ([]cq.Atom, error) {
	out := []cq.Atom{g}
	seen := map[cq.Atom]bool{g: true}
	add := func(a cq.Atom) error {
		if seen[a] {
			return nil
		}
		seen[a] = true
		if out = append(out, a); len(out) > maxTerms {
			return ErrTooManyUnionTerms
		}
		return nil
	}
	freshVar := func() cq.Term { return fresh }
	for i := 0; i < len(out); i++ {
		if err := s.rewriteAtom(out[i], freshVar, add); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MustReformulate is Reformulate panicking on error (tests/examples).
func MustReformulate(q *cq.Query, s *Schema) *cq.UCQ {
	u, err := Reformulate(q, s, 0)
	if err != nil {
		panic(err)
	}
	return u
}

// TerminationBound returns the (2|S|²)^m bound of Theorem 4.1 on the number
// of union terms, as a float64 to avoid overflow for large m.
func TerminationBound(s *Schema, atoms int) float64 {
	b := 1.0
	base := 2.0 * float64(s.Len()) * float64(s.Len())
	if base < 1 {
		base = 1
	}
	for i := 0; i < atoms; i++ {
		b *= base
	}
	return b
}
