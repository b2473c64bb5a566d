package engine

import (
	"fmt"
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// unionStore is the union-leaf fixture over 400 nodes: a class c with a
// subclass c1 (overlapping instances), a property dp with domain c (two edges
// per subject, so its existential object repeats the frame) and rp with range
// c (its subjects descending as its objects ascend, so an alternative that
// seeks on the wrong position skips answers), a property p with a subproperty p1 (overlapping edges), a dense join
// relation e, self-loops on p1 for the repeated-variable frame, and far
// edges whose objects lie hundreds of triples apart in every union, so a
// merge join reaches them by seeks.
func unionStore(subjectK, objectK int) (*store.Store, *cq.Parser) {
	st := store.New()
	if subjectK > 1 || objectK > 0 {
		st = store.NewDual(subjectK, objectK)
	}
	d := st.Dict()
	add := func(s, p, o string) {
		st.Add(store.Triple{d.EncodeIRI(s), d.EncodeIRI(p), d.EncodeIRI(o)})
	}
	n := func(i int) string { return fmt.Sprintf("n%d", i%400) }
	for i := 0; i < 400; i++ {
		if i%3 == 0 {
			add(n(i), rdf.RDFType, "c")
		}
		if i%5 == 0 {
			add(n(i), rdf.RDFType, "c1")
		}
		if i%4 == 0 {
			add(n(i), "dp", n(7*i+1))
			add(n(i), "dp", n(7*i+2))
		}
		if i%6 == 1 {
			add(n(397-i), "rp", n(i))
		}
		add(n(i), "e", n(i+1))
		add(n(i), "e", n(3*i+2))
		if i%2 == 0 || i%7 == 0 {
			add(n(i), "p", n(i+5))
		}
		if i%2 == 1 || i%7 == 0 {
			add(n(i), "p1", n(i+5))
		}
		if i%11 == 0 {
			add(n(i), "p1", n(i))
		}
	}
	for _, o := range []int{150, 199, 379, 390} { // 199 and 379 are c only by rp
		add(n(0), "far", n(o))
	}
	return st, cq.NewParser(d)
}

// unionLayouts are the placements every union-leaf case runs on.
var unionLayouts = []struct {
	name              string
	subjectK, objectK int
}{{"flat", 1, 0}, {"dual", 2, 2}}

// typeAlts are the alternatives of t(x, rdf:type, c) under c1 ⊑ c, dp
// domain c, rp range c, with f the existential variable.
func typeAlts(d *dict.Dictionary, x, f cq.Term) []cq.Atom {
	typ, c := cq.Const(d.EncodeIRI(rdf.RDFType)), cq.Const(d.EncodeIRI("c"))
	return []cq.Atom{
		{x, typ, c},
		{x, typ, cq.Const(d.EncodeIRI("c1"))},
		{x, cq.Const(d.EncodeIRI("dp")), f},
		{f, cq.Const(d.EncodeIRI("rp")), x},
	}
}

// propAlts are the alternatives of t(s, p, o) under p1 ⊑ p.
func propAlts(d *dict.Dictionary, s, o cq.Term) []cq.Atom {
	return []cq.Atom{{s, cq.Const(d.EncodeIRI("p")), o}, {s, cq.Const(d.EncodeIRI("p1")), o}}
}

// expandAlts is the oracle's union: q under every combination of its atoms'
// alternatives.
func expandAlts(q *cq.Query, alts [][]cq.Atom) *cq.UCQ {
	u := cq.NewUCQ()
	cur := q.Clone()
	var rec func(i int)
	rec = func(i int) {
		if i == len(alts) {
			u.Add(cur.Clone())
			return
		}
		if len(alts[i]) == 0 {
			rec(i + 1)
			return
		}
		for _, a := range alts[i] {
			cur.Atoms[i] = a
			rec(i + 1)
		}
	}
	rec(0)
	return u
}

// TestUnionLeafMatchesExpandedUnion is the union-leaf matrix: a union leaf as
// the driving scan, as a merge join's right side (streamed and galloping
// through seeks) and as a hash join's build side, on a flat and a dual
// layout, against the member-wise union of every combination of
// alternatives. The plan must have the named shape, and its rows must be a
// set even where the head keeps every variable and nothing but the leaves'
// merge dedups.
func TestUnionLeafMatchesExpandedUnion(t *testing.T) {
	for _, lay := range unionLayouts {
		st, p := unionStore(lay.subjectK, lay.objectK)
		d := st.Dict()
		f1, f2 := cq.Var(900), cq.Var(901)
		cases := []struct {
			name  string
			query string
			alts  func(q *cq.Query) [][]cq.Atom
			cards func(q *cq.Query, a cq.Atom) float64 // nil: exact counts
			shape func(p *QueryPlan) bool
		}{
			{name: "driving", query: "q(X) :- t(X, rdf:type, c)",
				alts: func(q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{typeAlts(d, q.Atoms[0][0], f1)}
				},
				shape: func(p *QueryPlan) bool { return p.steps[0].spec.alts != nil && !p.distinct },
			},
			{name: "driving-repeated", query: "q(X) :- t(X, p, X)",
				alts: func(q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{propAlts(d, q.Atoms[0][0], q.Atoms[0][0])}
				},
				shape: func(p *QueryPlan) bool { return p.steps[0].spec.alts != nil },
			},
			{name: "driving-then-merge", query: "q(X, Y) :- t(X, rdf:type, c), t(X, p, Y)",
				alts: func(q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{typeAlts(d, q.Atoms[0][0], f1), propAlts(d, q.Atoms[1][0], q.Atoms[1][2])}
				},
				shape: func(p *QueryPlan) bool {
					return p.steps[0].spec.alts != nil && p.steps[1].kind == stepMergeJoin &&
						p.steps[1].spec.alts != nil && !p.distinct
				},
			},
			{name: "merge-right", query: "q(X, Y) :- t(X, e, Y), t(Y, rdf:type, c)",
				alts: func(q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{nil, typeAlts(d, q.Atoms[1][0], f1)}
				},
				cards: func(_ *cq.Query, a cq.Atom) float64 {
					if a[1] == cq.Const(d.EncodeIRI("e")) {
						return 10
					}
					return 1000
				},
				shape: func(p *QueryPlan) bool {
					return p.steps[1].kind == stepMergeJoin && p.steps[1].spec.alts != nil
				},
			},
			{name: "merge-right-seek", query: "q(Y, Z) :- t(n0, far, Y), t(Y, rdf:type, c), t(Y, p, Z)",
				alts: func(q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{nil, typeAlts(d, q.Atoms[1][0], f1), propAlts(d, q.Atoms[2][0], q.Atoms[2][2])}
				},
				shape: func(p *QueryPlan) bool {
					return p.steps[1].kind == stepMergeJoin && p.steps[1].spec.alts != nil &&
						p.steps[2].kind == stepMergeJoin && p.steps[2].spec.alts != nil
				},
			},
			{name: "hash-build", query: "q(X, Y, Z, W) :- t(X, e, Y), t(Y, e, Z), t(X, p, W), t(W, rdf:type, c)",
				alts: func(q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{nil, nil, propAlts(d, q.Atoms[2][0], q.Atoms[2][2]), typeAlts(d, q.Atoms[3][0], f2)}
				},
				cards: func(q *cq.Query, a cq.Atom) float64 {
					switch a[1] {
					case cq.Const(d.EncodeIRI("e")):
						if a == q.Atoms[0] {
							return 50000
						}
						return 60000
					case cq.Const(d.EncodeIRI(rdf.RDFType)), cq.Const(d.EncodeIRI("dp")), cq.Const(d.EncodeIRI("rp")):
						return 50000
					}
					return 35000
				},
				shape: func(p *QueryPlan) bool {
					for _, s := range p.steps {
						if s.kind == stepHashJoin && !s.buildLeft && s.spec.alts != nil {
							return !p.distinct
						}
					}
					return false
				},
			},
		}
		for _, c := range cases {
			t.Run(lay.name+"/"+c.name, func(t *testing.T) {
				p.ResetNames()
				q := p.MustParseQuery(c.query)
				alts := c.alts(q)
				for i := range alts {
					if alts[i] == nil {
						alts[i] = []cq.Atom{q.Atoms[i]}
					}
				}
				var cards Cards = storeCards{st}
				if c.cards != nil {
					cards = cardsFunc(func(a cq.Atom) float64 { return c.cards(q, a) })
				}
				plan, err := planQuery(st, q, alts, cards)
				if err != nil {
					t.Fatal(err)
				}
				if !c.shape(plan) {
					t.Fatalf("plan does not have the %s shape:\n%s", c.name, plan.Explain())
				}
				got, err := plan.EvalStream(ExecOptions{}).Collect()
				if err != nil {
					t.Fatal(err)
				}
				want, err := MaterializeUCQ(st, expandAlts(q, alts))
				if err != nil {
					t.Fatal(err)
				}
				if got.Len() == 0 {
					t.Fatalf("fixture gives %s no answers", c.name)
				}
				sameRows(t, c.name, want, got)
				seen := newRowSet(got.Len())
				for _, row := range got.Rows {
					if !seen.add(row) {
						t.Fatalf("row %v emitted twice:\n%s", row, plan.Explain())
					}
				}
			})
		}
	}
}

// TestUnionLeafInstantiate: a cached template's union leaves take the
// caller's constants in every alternative, as its plain atoms do.
func TestUnionLeafInstantiate(t *testing.T) {
	for _, lay := range unionLayouts {
		st, p := unionStore(lay.subjectK, lay.objectK)
		d := st.Dict()
		param := cq.Const(dict.ID(1) << 56)
		q := p.MustParseQuery("q(Y) :- t(n0, p, Y), t(Y, rdf:type, c)")
		q.Atoms[0][0] = param
		alts := [][]cq.Atom{propAlts(d, param, q.Atoms[0][2]), typeAlts(d, q.Atoms[1][0], cq.Var(900))}
		plan, err := PlanQueryAlts(st, q, alts, map[dict.ID]dict.ID{param.ConstID(): d.EncodeIRI("n0")})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{"n4", "n7", "n13", "n14"} {
			subst := map[dict.ID]dict.ID{param.ConstID(): d.EncodeIRI(s)}
			got, err := plan.Instantiate(st, subst).EvalStream(ExecOptions{}).Collect()
			if err != nil {
				t.Fatal(err)
			}
			conc := make([][]cq.Atom, len(alts))
			for i, as := range alts {
				for _, a := range as {
					if a[0] == param {
						a[0] = cq.Const(d.EncodeIRI(s))
					}
					conc[i] = append(conc[i], a)
				}
			}
			cq0 := q.Clone()
			cq0.Atoms[0][0] = cq.Const(d.EncodeIRI(s))
			want, err := MaterializeUCQ(st, expandAlts(cq0, conc))
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, lay.name+"/"+s, want, got)
		}
	}
}
