// Package rdf3x implements a compact RISC-style native RDF engine in the
// spirit of RDF-3X [15, 16]: the triple table is stored in all six sorted
// permutations as flat arrays (clustered indexes), triple patterns are
// resolved by binary-searched range scans, and join order is chosen by exact
// selectivity. It is the Figure 8 comparator standing in for the
// closed-source RDF-3X binary.
//
// Compared to internal/store (the PostgreSQL-triple-table stand-in), the
// flat permutation layout avoids one level of indirection per triple access,
// and evaluation re-chooses the most selective atom at every join step using
// exact range sizes, which is the core of RDF-3X's RISC design.
package rdf3x

import (
	"sort"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/store"
)

// permutation orders.
var perms = [6][3]int{
	{0, 1, 2}, // SPO
	{0, 2, 1}, // SOP
	{1, 0, 2}, // PSO
	{1, 2, 0}, // POS
	{2, 0, 1}, // OSP
	{2, 1, 0}, // OPS
}

// Engine holds the six clustered permutation indexes.
type Engine struct {
	idx [6][]store.Triple
}

// New builds the engine from a store's triples (bulk load).
func New(st *store.Store) *Engine {
	return FromTriples(st.Triples())
}

// FromTriples builds the engine from a triple slice.
func FromTriples(ts []store.Triple) *Engine {
	e := &Engine{}
	for pi, perm := range perms {
		arr := make([]store.Triple, len(ts))
		copy(arr, ts)
		p0, p1, p2 := perm[0], perm[1], perm[2]
		sort.Slice(arr, func(a, b int) bool {
			ta, tb := arr[a], arr[b]
			if ta[p0] != tb[p0] {
				return ta[p0] < tb[p0]
			}
			if ta[p1] != tb[p1] {
				return ta[p1] < tb[p1]
			}
			return ta[p2] < tb[p2]
		})
		e.idx[pi] = arr
	}
	return e
}

// Len returns the number of triples.
func (e *Engine) Len() int { return len(e.idx[0]) }

// indexFor picks the permutation matching the bound positions.
func indexFor(pat store.Pattern) (int, []dict.ID) {
	bs, bp, bo := pat[0] != store.Wildcard, pat[1] != store.Wildcard, pat[2] != store.Wildcard
	switch {
	case bs && bp && bo:
		return 0, []dict.ID{pat[0], pat[1], pat[2]}
	case bs && bp:
		return 0, []dict.ID{pat[0], pat[1]}
	case bs && bo:
		return 1, []dict.ID{pat[0], pat[2]}
	case bp && bo:
		return 3, []dict.ID{pat[1], pat[2]}
	case bs:
		return 0, []dict.ID{pat[0]}
	case bp:
		return 2, []dict.ID{pat[1]}
	case bo:
		return 4, []dict.ID{pat[2]}
	default:
		return 0, nil
	}
}

// rangeOf returns [lo, hi) of the matching run in permutation pi.
func (e *Engine) rangeOf(pi int, prefix []dict.ID) (int, int) {
	arr := e.idx[pi]
	perm := perms[pi]
	cmp := func(i int) int {
		t := arr[i]
		for k, want := range prefix {
			got := t[perm[k]]
			if got < want {
				return -1
			}
			if got > want {
				return 1
			}
		}
		return 0
	}
	lo := sort.Search(len(arr), func(i int) bool { return cmp(i) >= 0 })
	hi := sort.Search(len(arr), func(i int) bool { return cmp(i) > 0 })
	return lo, hi
}

// Count returns the exact number of triples matching the pattern.
func (e *Engine) Count(pat store.Pattern) int {
	pi, prefix := indexFor(pat)
	if prefix == nil {
		return len(e.idx[0])
	}
	lo, hi := e.rangeOf(pi, prefix)
	return hi - lo
}

// scan visits the triples matching the pattern.
func (e *Engine) scan(pat store.Pattern, fn func(store.Triple) bool) {
	pi, prefix := indexFor(pat)
	arr := e.idx[pi]
	lo, hi := 0, len(arr)
	if prefix != nil {
		lo, hi = e.rangeOf(pi, prefix)
	}
	for i := lo; i < hi; i++ {
		if !fn(arr[i]) {
			return
		}
	}
}

// Evaluate answers a conjunctive query with set semantics. At every step the
// engine picks the unresolved atom with the smallest exact range under the
// current binding (RDF-3X's selectivity-first join ordering), then performs
// an indexed nested-loop step over the matching run.
func (e *Engine) Evaluate(q *cq.Query) (*engine.Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	out := engine.NewRowIndex(engine.NewRelation(q.Head))
	row := make(engine.Row, len(q.Head))
	bind := make(map[cq.Term]dict.ID)
	resolved := make([]bool, len(q.Atoms))

	patternOf := func(a cq.Atom) store.Pattern {
		var pat store.Pattern
		for p := 0; p < 3; p++ {
			if a[p].IsConst() {
				pat[p] = a[p].ConstID()
			} else if v, ok := bind[a[p]]; ok {
				pat[p] = v
			}
		}
		return pat
	}

	var rec func(done int)
	rec = func(done int) {
		if done == len(q.Atoms) {
			for i, h := range q.Head {
				if h.IsConst() {
					row[i] = h.ConstID()
				} else {
					row[i] = bind[h]
				}
			}
			out.Add(row)
			return
		}
		// Most selective unresolved atom first.
		best, bestCount := -1, 0
		for i := range q.Atoms {
			if resolved[i] {
				continue
			}
			c := e.Count(patternOf(q.Atoms[i]))
			if best == -1 || c < bestCount {
				best, bestCount = i, c
			}
		}
		a := q.Atoms[best]
		resolved[best] = true
		e.scan(patternOf(a), func(t store.Triple) bool {
			var added []cq.Term
			ok := true
			for p := 0; p < 3 && ok; p++ {
				term := a[p]
				if term.IsConst() {
					continue
				}
				if v, bound := bind[term]; bound {
					if v != t[p] {
						ok = false
					}
					continue
				}
				bind[term] = t[p]
				added = append(added, term)
			}
			if ok {
				rec(done + 1)
			}
			for _, v := range added {
				delete(bind, v)
			}
			return true
		})
		resolved[best] = false
	}
	rec(0)
	return out.Relation(), nil
}
