package main

import (
	"bytes"
	"fmt"
	"strings"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
)

// The oracle. Every answer the benchmark relies on is recomputed here by code
// that shares nothing with the system under test but the N-Triples line
// parser and the query parser: its own term table, its own RDFS closure, a
// saturated copy of the data (every implicit triple made explicit, the
// semantics the paper defines reformulation against: Theorem 4.2), three hash
// indexes and a backtracking evaluator. No store, dictionary, reformulation,
// planner, view or cache is involved, so a defect in any of those shows as a
// mismatch instead of being reproduced on both sides. (The facade's own
// uncached reference path could not serve: it reformulates with
// reason.Reformulate, whose union dedup treats heads as sets and drops the
// mirror image of a symmetric member — which this oracle caught.)

type oracle struct {
	ids     map[string]int32 // rdf.Term.Key() -> term id
	terms   []rdf.Term
	triples [][3]int32
	by      [3]map[int32][]int32 // position -> term id -> triple indexes
}

func (o *oracle) intern(t rdf.Term) int32 {
	k := t.Key()
	if id, ok := o.ids[k]; ok {
		return id
	}
	id := int32(len(o.terms))
	o.ids[k] = id
	o.terms = append(o.terms, t)
	return id
}

// closure computes, from the RDFS statements, each property's
// super-properties, each class's super-classes, and each property's domain
// and range classes — all transitively closed, with domains and ranges
// inherited down subPropertyOf and propagated up subClassOf, the RDFS
// fragment of the paper's Table 1.
type closure struct {
	superProps, superClasses map[string][]string
	domains, ranges          map[string][]string
}

func closeUp(direct map[string][]string) map[string][]string {
	out := make(map[string][]string, len(direct))
	for x := range direct {
		seen := map[string]bool{}
		stack := append([]string(nil), direct[x]...)
		for len(stack) > 0 {
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[y] {
				continue
			}
			seen[y] = true
			out[x] = append(out[x], y)
			stack = append(stack, direct[y]...)
		}
	}
	return out
}

func newClosure(schema rdf.Graph) closure {
	subP, subC := map[string][]string{}, map[string][]string{}
	dom, rng := map[string][]string{}, map[string][]string{}
	for _, t := range schema {
		l, r := t.S.Value, t.O.Value
		switch rdf.ShortenIRI(t.P.Value) {
		case "rdfs:subPropertyOf":
			subP[l] = append(subP[l], r)
		case "rdfs:subClassOf":
			subC[l] = append(subC[l], r)
		case "rdfs:domain":
			dom[l] = append(dom[l], r)
		case "rdfs:range":
			rng[l] = append(rng[l], r)
		}
	}
	c := closure{superProps: closeUp(subP), superClasses: closeUp(subC)}
	inherit := func(direct map[string][]string) map[string][]string {
		out := map[string][]string{}
		props := map[string]bool{}
		for p := range direct {
			props[p] = true
		}
		for p := range subP {
			props[p] = true
		}
		for p := range props {
			seen := map[string]bool{}
			for _, q := range append([]string{p}, c.superProps[p]...) {
				for _, cl := range direct[q] {
					for _, up := range append([]string{cl}, c.superClasses[cl]...) {
						if !seen[up] {
							seen[up] = true
							out[p] = append(out[p], up)
						}
					}
				}
			}
		}
		return out
	}
	c.domains, c.ranges = inherit(dom), inherit(rng)
	return c
}

// newOracle loads the inputs (plus extra N-Triples lines: serve-churn's
// residue) and, when the workload reasons, saturates them under the schema.
func newOracle(in *inputs, reasoning bool, extra []string) (*oracle, error) {
	data, err := rdf.Parse(bytes.NewReader(in.data))
	if err != nil {
		return nil, err
	}
	if len(extra) > 0 {
		more, err := rdf.ParseString(strings.Join(extra, "\n"))
		if err != nil {
			return nil, err
		}
		data = append(data, more...)
	}
	o := &oracle{ids: make(map[string]int32, len(data)/2)}
	seen := make(map[[3]int32]struct{}, len(data))
	add := func(s, p, ob int32) {
		t := [3]int32{s, p, ob}
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			o.triples = append(o.triples, t)
		}
	}
	var cl closure
	typeTerm := rdf.NewIRI(rdf.RDFType)
	if reasoning && in.schema != nil {
		schema, err := rdf.Parse(bytes.NewReader(in.schema))
		if err != nil {
			return nil, err
		}
		cl = newClosure(schema)
	}
	typeID := o.intern(typeTerm)
	for _, t := range data {
		s, p, ob := o.intern(t.S), o.intern(t.P), o.intern(t.O)
		add(s, p, ob)
		if !reasoning {
			continue
		}
		if p == typeID {
			for _, c := range cl.superClasses[t.O.Value] {
				add(s, typeID, o.intern(rdf.NewIRI(c)))
			}
			continue
		}
		for _, p2 := range cl.superProps[t.P.Value] {
			add(s, o.intern(rdf.NewIRI(p2)), ob)
		}
		for _, c := range cl.domains[t.P.Value] {
			add(s, typeID, o.intern(rdf.NewIRI(c)))
		}
		for _, c := range cl.ranges[t.P.Value] {
			add(ob, typeID, o.intern(rdf.NewIRI(c)))
		}
	}
	for pos := range o.by {
		o.by[pos] = make(map[int32][]int32)
	}
	for i, t := range o.triples {
		for pos := 0; pos < 3; pos++ {
			o.by[pos][t[pos]] = append(o.by[pos][t[pos]], int32(i))
		}
	}
	return o, nil
}

// parser returns a query parser over a private dictionary; answer maps the
// parsed constants into the oracle's own term table.
func (o *oracle) parser() (*cq.Parser, *dict.Dictionary) {
	d := dict.New()
	return cq.NewParser(d), d
}

// answer evaluates q (parsed over d) on the saturated triples and renders the
// distinct head tuples the way the facade does: IRIs in their short form,
// literals raw, columns joined by NUL.
func (o *oracle) answer(q *cq.Query, d *dict.Dictionary) (map[string]struct{}, error) {
	// Atoms as oracle ids: >= 0 a constant, < 0 variable -(n) of q. A
	// constant the data never mentions matches nothing.
	atoms := make([][3]int32, len(q.Atoms))
	for i, a := range q.Atoms {
		for pos, t := range a {
			if t.IsVar() {
				atoms[i][pos] = -int32(t.VarNum())
				continue
			}
			term, err := d.Decode(t.ConstID())
			if err != nil {
				return nil, err
			}
			id, ok := o.ids[term.Key()]
			if !ok {
				return map[string]struct{}{}, nil
			}
			atoms[i][pos] = id
		}
	}
	bind := make(map[int32]int32) // variable -> term id
	out := make(map[string]struct{})
	done := make([]bool, len(atoms))
	var sb strings.Builder
	emit := func() error {
		sb.Reset()
		for i, h := range q.Head {
			if i > 0 {
				sb.WriteByte(0)
			}
			if !h.IsVar() {
				return fmt.Errorf("oracle: constant in head")
			}
			t := o.terms[bind[-int32(h.VarNum())]]
			if t.Kind == rdf.IRI {
				sb.WriteString(rdf.ShortenIRI(t.Value))
			} else {
				sb.WriteString(t.Value)
			}
		}
		out[sb.String()] = struct{}{}
		return nil
	}
	value := func(x int32) (int32, bool) {
		if x >= 0 {
			return x, true
		}
		v, ok := bind[x]
		return v, ok
	}
	var solve func(left int) error
	solve = func(left int) error {
		if left == 0 {
			return emit()
		}
		// Next atom: the one whose cheapest bound position has the shortest
		// posting list (an atom with nothing bound scans everything).
		best, bestLen := -1, 0
		var bestList []int32
		for i, a := range atoms {
			if done[i] {
				continue
			}
			n, list := len(o.triples), []int32(nil)
			for pos := 0; pos < 3; pos++ {
				if v, ok := value(a[pos]); ok {
					if l := o.by[pos][v]; list == nil || len(l) < n {
						n, list = len(l), l
						if list == nil {
							list = []int32{}
						}
					}
				}
			}
			if best < 0 || n < bestLen {
				best, bestLen, bestList = i, n, list
			}
		}
		a := atoms[best]
		done[best] = true
		defer func() { done[best] = false }()
		try := func(t [3]int32) error {
			var bound [3]int32
			nb := 0
			ok := true
			for pos := 0; pos < 3 && ok; pos++ {
				if v, has := value(a[pos]); has {
					ok = v == t[pos]
				} else {
					bind[a[pos]] = t[pos]
					bound[nb] = a[pos]
					nb++
				}
			}
			var err error
			if ok {
				err = solve(left - 1)
			}
			for _, v := range bound[:nb] {
				delete(bind, v)
			}
			return err
		}
		if bestList == nil {
			for _, t := range o.triples {
				if err := try(t); err != nil {
					return err
				}
			}
			return nil
		}
		for _, ti := range bestList {
			if err := try(o.triples[ti]); err != nil {
				return err
			}
		}
		return nil
	}
	return out, solve(len(atoms))
}
