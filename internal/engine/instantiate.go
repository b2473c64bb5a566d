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
		changed := false
		for pos := 0; pos < 3; pos++ {
			if id := sp.pat[pos]; id != store.Wildcard {
				if v, ok := subst[id]; ok {
					sp.pat[pos] = v
					changed = true
				}
			}
			if t := sp.atom[pos]; t.IsConst() {
				if v, ok := subst[t.ConstID()]; ok {
					sp.atom[pos] = cq.Const(v)
					changed = true
				}
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
// sentinel→value substitution.
func PlanQueryParams(st store.Reader, q *cq.Query, repr map[dict.ID]dict.ID) (*QueryPlan, error) {
	if len(repr) == 0 {
		return PlanQuery(st, q)
	}
	return PlanQueryWithStats(st, q, substCards{storeCards{st}, repr})
}
