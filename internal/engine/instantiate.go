package engine

import (
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// Instantiate returns a copy of the plan bound to the given reader with the
// constant substitution applied to every compiled structure that carries
// constants: scan patterns, the atoms kept for explain output and the head
// column labels (whose constants the root projection emits). The receiver is
// not modified and stays usable — the clone shares the immutable step specs it
// does not rewrite, so instantiating a cached template per execution is cheap
// (one steps slice plus one atomSpec per substituted atom).
//
// This is what makes compiled plans reusable across snapshots and across
// parameter bindings: operator pipelines are built from p.st and the specs
// when EvalStream runs, so a clone carrying a fresh snapshot and the caller's
// concrete constants executes the cached shape against current data. Join
// order and permutations are frozen at compile time — correct for any
// binding, merely tuned for the one that triggered compilation. Shard routing is NOT frozen:
// substitution changes which shard a bound position hashes to, so the
// concrete route is re-resolved from the instantiated patterns when each
// scan opens its cursors (scanOp.open, the store's routed NewCursor).
//
// A nil reader keeps the plan's own; an empty substitution just rebinds.
func (p *QueryPlan) Instantiate(st store.Reader, subst map[dict.ID]dict.ID) *QueryPlan {
	q := *p
	if st != nil {
		q.st = st
	}
	if len(subst) == 0 {
		return &q
	}
	q.steps = append([]planStep(nil), p.steps...)
	for i := range q.steps {
		s := &q.steps[i]
		if s.spec == nil {
			continue
		}
		sp := *s.spec
		changed := substPattern(&sp.pat, &sp.atom, subst)
		if sp.alts != nil {
			alts := append([]altSpec(nil), sp.alts...)
			altsChanged := false
			for k := range alts {
				if substPattern(&alts[k].pat, &alts[k].atom, subst) {
					altsChanged = true
				}
			}
			if altsChanged {
				sp.alts, changed = alts, true
			}
		}
		if changed {
			s.spec = &sp
		}
	}
	q.head = append([]cq.Term(nil), p.head...)
	for i, h := range q.head {
		if h.IsConst() {
			if v, ok := subst[h.ConstID()]; ok {
				q.head[i] = cq.Const(v)
			}
		}
	}
	return &q
}

// substPattern applies the substitution to a compiled pattern and the atom it
// was compiled from, reporting whether anything changed.
func substPattern(pat *store.Pattern, atom *cq.Atom, subst map[dict.ID]dict.ID) bool {
	changed := false
	for pos := 0; pos < 3; pos++ {
		if id := pat[pos]; id != store.Wildcard {
			if v, ok := subst[id]; ok {
				pat[pos] = v
				changed = true
			}
		}
		if t := atom[pos]; t.IsConst() {
			if v, ok := subst[t.ConstID()]; ok {
				atom[pos] = cq.Const(v)
				changed = true
			}
		}
	}
	return changed
}

// substCards substitutes representative constants for parameter sentinels
// before delegating to the exact store counts, so a parameterized template is
// join-ordered by the cardinalities of the concrete query that triggered its
// compilation rather than by sentinel IDs that match nothing.
type substCards struct {
	inner Cards
	repr  map[dict.ID]dict.ID
}

func (c substCards) AtomCount(a cq.Atom) float64 {
	for pos := 0; pos < 3; pos++ {
		if t := a[pos]; t.IsConst() {
			if v, ok := c.repr[t.ConstID()]; ok {
				a[pos] = cq.Const(v)
			}
		}
	}
	return c.inner.AtomCount(a)
}

// PlanQueryParams compiles a parameterized query whose body carries sentinel
// constants (parameter placeholders outside the dictionary's ID range),
// estimating cardinalities as if each sentinel held its representative
// concrete value from repr. Run the result via Instantiate with a
// sentinel→value substitution. It is PlanQueryAlts without alternatives.
func PlanQueryParams(st store.Reader, q *cq.Query, repr map[dict.ID]dict.ID) (*QueryPlan, error) {
	return PlanQueryAlts(st, q, nil, repr)
}

// PlanQueryAlts compiles a parameterized query (as PlanQueryParams) whose
// atoms may be unions of triple patterns: alts[i], when it lists more than
// the atom itself, holds atom i's alternatives, alts[i][0] being the atom.
// Every alternative must keep the atom's variables; any other variable it
// has is existential. Such an atom is one union leaf (union.go): estimated
// as the sum of its alternatives' counts, run as one merged, duplicate-free
// stream of the atom's bindings. nil alts plans the query's atoms alone.
//
// This is how a reformulated query is answered as one plan per rule-5/6
// member (reason.ReformulateAtoms) rather than one per member of the union.
func PlanQueryAlts(st store.Reader, q *cq.Query, alts [][]cq.Atom, repr map[dict.ID]dict.ID) (*QueryPlan, error) {
	var cards Cards = storeCards{st}
	if len(repr) > 0 {
		cards = substCards{storeCards{st}, repr}
	}
	return planQuery(st, q, alts, cards)
}
