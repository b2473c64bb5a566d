package cq

import "rdfviews/internal/dict"

// MaxLiftedParams bounds how many constant occurrences LiftConstants lifts:
// beyond it the remaining occurrences stay concrete (correct, just less
// sharing), keeping parameter vectors and sentinel ranges small.
const MaxLiftedParams = 32

// LiftConstants rewrites body constants into parameters so that queries
// differing only in those constants share one cached plan skeleton: each
// liftable occurrence is replaced by a fresh variable (a parameter), and the
// lifted constant values are returned alongside, in occurrence order, for
// binding at execution time.
//
// An occurrence is liftable only when RDFS reformulation (Algorithm 1)
// provably never inspects its value, so reformulating the skeleton and then
// binding commutes with reformulating the concrete query:
//
//   - subject position: always — no reformulation rule matches on subjects;
//   - object position: only under a constant predicate that is not rdf:type —
//     rules 1/3/4/5 match on the objects of type atoms, and a variable
//     predicate could be bound to rdf:type by rule 6;
//   - predicate position: never — rule 2 (subproperty) matches on it;
//   - head occurrences: never — the head is the query's output shape.
//
// The same conservative rule is applied under every reasoning mode, so one
// skeleton serves them all. typeID is the dictionary ID of rdf:type (0 when
// the term is not in the dictionary, in which case no atom can be a type
// atom and objects under any constant predicate lift).
//
// Returns the skeleton (a copy; q is untouched), the parameter variables and
// the lifted constant IDs, both in occurrence order (body scanned atom by
// atom, subject before object). A query with nothing to lift returns a plain
// clone and empty slices.
func LiftConstants(q *Query, typeID dict.ID) (*Query, []Term, []dict.ID) {
	out := q.Clone()
	next := q.MaxVarNum() + 1
	var params []Term
	var vals []dict.ID
	for ai := range out.Atoms {
		a := &out.Atoms[ai]
		for _, pos := range [2]int{0, 2} {
			if len(params) >= MaxLiftedParams {
				return out, params, vals
			}
			t := a[pos]
			if !t.IsConst() {
				continue
			}
			if pos == 2 {
				pred := a[1]
				if !pred.IsConst() || pred.ConstID() == typeID {
					continue
				}
			}
			p := Var(next)
			next++
			a[pos] = p
			params = append(params, p)
			vals = append(vals, t.ConstID())
		}
	}
	return out, params, vals
}

// ParseTerm parses a single term in the workload syntax (?var, <iri>,
// "literal", prefixed or bare IRI), encoding constants through the parser's
// dictionary. Exported for binding prepared-query parameters from strings.
func (p *Parser) ParseTerm(tok string) (Term, error) {
	return p.parseTerm(tok)
}
