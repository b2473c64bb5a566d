package cq

import (
	"strings"

	"rdfviews/internal/dict"
)

// UCQ is a union of conjunctive queries — the output form of Algorithm 1
// (Reformulate) and the view language of pre- and post-reformulation
// (Section 4.3). All members are expected to share head arity.
//
// Alts, when non-nil, factors the union per atom (ReformulateAtoms): member
// m stands for the queries obtained by replacing each of its atoms i by one
// of Alts[m][i], whose first element is the atom itself; a list of one atom,
// or a nil one, leaves the atom alone. nil Alts means every member stands
// for itself.
type UCQ struct {
	Queries []*Query
	Alts    [][][]Atom
	codes   map[string]struct{}
}

// AltsOf returns member m's alternatives per atom, nil when it stands for
// itself.
func (u *UCQ) AltsOf(m int) [][]Atom {
	if u.Alts == nil {
		return nil
	}
	return u.Alts[m]
}

// NewUCQ returns a UCQ containing the given queries, deduplicated up to
// variable renaming that keeps the head in place (OrderedCode): a term and
// its mirror image under a head permutation are different members.
func NewUCQ(qs ...*Query) *UCQ {
	u := &UCQ{codes: make(map[string]struct{})}
	for _, q := range qs {
		u.Add(q)
	}
	return u
}

// Add inserts q unless an equal-up-to-renaming member is already present.
// It reports whether q was new.
func (u *UCQ) Add(q *Query) bool {
	if u.codes == nil {
		u.codes = make(map[string]struct{})
	}
	code := q.OrderedCode()
	if _, ok := u.codes[code]; ok {
		return false
	}
	u.codes[code] = struct{}{}
	u.Queries = append(u.Queries, q)
	return true
}

// Contains reports whether an equal-up-to-renaming member is present.
func (u *UCQ) Contains(q *Query) bool {
	if u.codes == nil {
		return false
	}
	_, ok := u.codes[q.OrderedCode()]
	return ok
}

// Len returns the number of distinct union terms.
func (u *UCQ) Len() int { return len(u.Queries) }

// TotalAtoms returns the number of atoms summed over all union terms, the
// #a(Q) measure of Table 3.
func (u *UCQ) TotalAtoms() int {
	n := 0
	for _, q := range u.Queries {
		n += len(q.Atoms)
	}
	return n
}

// TotalConstants returns the number of constant positions summed over all
// union terms, the #c(Q) measure of Table 3.
func (u *UCQ) TotalConstants() int {
	n := 0
	for _, q := range u.Queries {
		n += q.ConstCount()
	}
	return n
}

// Format renders the union with ∪ separators.
func (u *UCQ) Format(d *dict.Dictionary) string {
	parts := make([]string, len(u.Queries))
	for i, q := range u.Queries {
		parts[i] = q.Format(d)
	}
	return strings.Join(parts, "\n  ∪ ")
}
