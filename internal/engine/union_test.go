package engine

import (
	"fmt"
	"slices"
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

// windowStore is the bitset merge's fixture: the classes and properties of
// typeAlts over two blocks of nodes, 10,000 and 2,000 IDs wide, with 10,000
// IRIs that occur in no triple encoded between them. So t(X, rdf:type, c)
// has more than BatchSize triples behind its alternatives, its keys span
// more than one windowBits window, and an empty gap wider than a window lies
// between the blocks; e edges reach across both blocks, so a merge join
// seeks over the gap. The store is bulk-loaded and compacted into its base
// indexes; dirty then removes some triples and adds others, leaving overlays
// and tombstones.
func windowStore(subjectK, objectK int, dirty bool) (*store.Store, *cq.Parser) {
	st := store.New()
	if subjectK > 1 || objectK > 0 {
		st = store.NewDual(subjectK, objectK)
	}
	d := st.Dict()
	typ, c, c1 := d.EncodeIRI(rdf.RDFType), d.EncodeIRI("c"), d.EncodeIRI("c1")
	dp, rp, e := d.EncodeIRI("dp"), d.EncodeIRI("rp"), d.EncodeIRI("e")
	var nodes []dict.ID
	for i := 0; i < 10000; i++ {
		nodes = append(nodes, d.EncodeIRI(fmt.Sprintf("a%d", i)))
	}
	for i := 0; i < 10000; i++ {
		d.EncodeIRI(fmt.Sprintf("gap%d", i))
	}
	for i := 0; i < 2000; i++ {
		nodes = append(nodes, d.EncodeIRI(fmt.Sprintf("b%d", i)))
	}
	n := func(i int) dict.ID { return nodes[i%len(nodes)] }
	var ts []store.Triple
	for i, x := range nodes {
		if i%3 == 0 {
			ts = append(ts, store.Triple{x, typ, c})
		}
		if i%5 == 0 {
			ts = append(ts, store.Triple{x, typ, c1})
		}
		if i%4 == 0 {
			ts = append(ts, store.Triple{x, dp, n(7*i + 1)}, store.Triple{x, dp, n(7*i + 2)})
		}
		if i%6 == 1 {
			ts = append(ts, store.Triple{n(len(nodes) - 1 - i), rp, x})
		}
		if i%97 == 0 {
			ts = append(ts, store.Triple{x, e, n(31*i + 5)})
		}
	}
	st.AddBatch(ts)
	st = st.Clone()
	if dirty {
		for i := 0; i < len(ts); i += 37 {
			st.Remove(ts[i])
		}
		for i := 1; i < len(nodes); i += 41 {
			st.Add(store.Triple{nodes[i], typ, c1})
		}
	}
	return st, cq.NewParser(d)
}

// recordMerges records the merge each union-leaf cursor picks until the test
// ends.
func recordMerges(t *testing.T) *[2]int {
	var picks [2]int // heap, bitset
	unionMergeHook = func(bitset bool) {
		if bitset {
			picks[1]++
		} else {
			picks[0]++
		}
	}
	t.Cleanup(func() { unionMergeHook = nil })
	return &picks
}

// TestUnionLeafMatchesExpandedUnion is the union-leaf matrix: a union leaf as
// the driving scan, as a merge join's right side (streamed and galloping
// through seeks) and as a hash join's build side, on a flat and a dual
// layout, against the member-wise union of every combination of
// alternatives. The plan must have the named shape, every leaf must pick the
// named merge, and the rows must be a set even where the head keeps every
// variable and nothing but the leaves' merges dedup. unionStore's leaves are
// small, so they take the heap; windowStore's driving type union takes the
// bitset over several windows and a gap, on a clean and on a dirty store, and
// as a merge join's sought inner it takes the heap.
func TestUnionLeafMatchesExpandedUnion(t *testing.T) {
	picks := recordMerges(t)
	type fixture struct {
		name string
		st   *store.Store
		p    *cq.Parser
	}
	for _, lay := range unionLayouts {
		small, sp := unionStore(lay.subjectK, lay.objectK)
		clean, cp := windowStore(lay.subjectK, lay.objectK, false)
		dirty, dp := windowStore(lay.subjectK, lay.objectK, true)
		unionFx := []fixture{{"", small, sp}}
		windowFx := []fixture{{"windows-clean/", clean, cp}, {"windows-dirty/", dirty, dp}}
		f1, f2 := cq.Var(900), cq.Var(901)
		iri := func(d *dict.Dictionary, s string) cq.Term { return cq.Const(d.EncodeIRI(s)) }
		cases := []struct {
			name         string
			windows      bool // run on windowStore instead of unionStore
			query        string
			alts         func(d *dict.Dictionary, q *cq.Query) [][]cq.Atom
			cards        func(d *dict.Dictionary, q *cq.Query, a cq.Atom) float64 // nil: exact counts
			shape        func(p *QueryPlan) bool
			heap, bitset int // the merges the plan's leaves pick
		}{
			{name: "driving", query: "q(X) :- t(X, rdf:type, c)",
				alts: func(d *dict.Dictionary, q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{typeAlts(d, q.Atoms[0][0], f1)}
				},
				shape: func(p *QueryPlan) bool { return p.steps[0].spec.alts != nil && !p.distinct },
				heap:  1,
			},
			{name: "driving-repeated", query: "q(X) :- t(X, p, X)",
				alts: func(d *dict.Dictionary, q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{propAlts(d, q.Atoms[0][0], q.Atoms[0][0])}
				},
				shape: func(p *QueryPlan) bool { return p.steps[0].spec.alts != nil },
				heap:  1,
			},
			{name: "driving-then-merge", query: "q(X, Y) :- t(X, rdf:type, c), t(X, p, Y)",
				alts: func(d *dict.Dictionary, q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{typeAlts(d, q.Atoms[0][0], f1), propAlts(d, q.Atoms[1][0], q.Atoms[1][2])}
				},
				shape: func(p *QueryPlan) bool {
					return p.steps[0].spec.alts != nil && p.steps[1].kind == stepMergeJoin &&
						p.steps[1].spec.alts != nil && !p.distinct
				},
				heap: 2,
			},
			{name: "merge-right", query: "q(X, Y) :- t(X, e, Y), t(Y, rdf:type, c)",
				alts: func(d *dict.Dictionary, q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{nil, typeAlts(d, q.Atoms[1][0], f1)}
				},
				cards: func(d *dict.Dictionary, _ *cq.Query, a cq.Atom) float64 {
					if a[1] == iri(d, "e") {
						return 10
					}
					return 1000
				},
				shape: func(p *QueryPlan) bool {
					return p.steps[1].kind == stepMergeJoin && p.steps[1].spec.alts != nil
				},
				heap: 1,
			},
			{name: "merge-right-seek", query: "q(Y, Z) :- t(n0, far, Y), t(Y, rdf:type, c), t(Y, p, Z)",
				alts: func(d *dict.Dictionary, q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{nil, typeAlts(d, q.Atoms[1][0], f1), propAlts(d, q.Atoms[2][0], q.Atoms[2][2])}
				},
				shape: func(p *QueryPlan) bool {
					return p.steps[1].kind == stepMergeJoin && p.steps[1].spec.alts != nil &&
						p.steps[2].kind == stepMergeJoin && p.steps[2].spec.alts != nil
				},
				heap: 2,
			},
			{name: "hash-build", query: "q(X, Y, Z, W) :- t(X, e, Y), t(Y, e, Z), t(X, p, W), t(W, rdf:type, c)",
				alts: func(d *dict.Dictionary, q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{nil, nil, propAlts(d, q.Atoms[2][0], q.Atoms[2][2]), typeAlts(d, q.Atoms[3][0], f2)}
				},
				cards: func(d *dict.Dictionary, q *cq.Query, a cq.Atom) float64 {
					switch a[1] {
					case iri(d, "e"):
						if a == q.Atoms[0] {
							return 50000
						}
						return 60000
					case iri(d, rdf.RDFType), iri(d, "dp"), iri(d, "rp"):
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
				heap: 2,
			},
			{name: "driving", windows: true, query: "q(X) :- t(X, rdf:type, c)",
				alts: func(d *dict.Dictionary, q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{typeAlts(d, q.Atoms[0][0], f1)}
				},
				shape:  func(p *QueryPlan) bool { return p.steps[0].spec.alts != nil && !p.distinct },
				bitset: 1,
			},
			{name: "merge-right", windows: true, query: "q(X, Y) :- t(X, e, Y), t(Y, rdf:type, c)",
				alts: func(d *dict.Dictionary, q *cq.Query) [][]cq.Atom {
					return [][]cq.Atom{nil, typeAlts(d, q.Atoms[1][0], f1)}
				},
				cards: func(d *dict.Dictionary, _ *cq.Query, a cq.Atom) float64 {
					if a[1] == iri(d, "e") {
						return 10
					}
					return 20000
				},
				shape: func(p *QueryPlan) bool {
					return p.steps[1].kind == stepMergeJoin && p.steps[1].spec.alts != nil
				},
				heap: 1,
			},
		}
		for _, c := range cases {
			fxs := unionFx
			if c.windows {
				fxs = windowFx
			}
			for _, fx := range fxs {
				t.Run(lay.name+"/"+fx.name+c.name, func(t *testing.T) {
					st, p := fx.st, fx.p
					d := st.Dict()
					p.ResetNames()
					q := p.MustParseQuery(c.query)
					alts := c.alts(d, q)
					for i := range alts {
						if alts[i] == nil {
							alts[i] = []cq.Atom{q.Atoms[i]}
						}
					}
					var cards Cards = storeCards{st}
					if c.cards != nil {
						cards = cardsFunc(func(a cq.Atom) float64 { return c.cards(d, q, a) })
					}
					plan, err := planQuery(st, q, alts, cards)
					if err != nil {
						t.Fatal(err)
					}
					if !c.shape(plan) {
						t.Fatalf("plan does not have the %s shape:\n%s", c.name, plan.Explain())
					}
					*picks = [2]int{}
					got, err := plan.EvalStream(ExecOptions{}).Collect()
					if err != nil {
						t.Fatal(err)
					}
					if *picks != [2]int{c.heap, c.bitset} {
						t.Fatalf("leaves picked %d heap and %d bitset merges, want %d and %d:\n%s",
							picks[0], picks[1], c.heap, c.bitset, plan.Explain())
					}
					want, err := MaterializeUCQ(st, expandAlts(q, alts))
					if err != nil {
						t.Fatal(err)
					}
					if got.Len() == 0 {
						t.Fatalf("fixture gives %s no answers", c.name)
					}
					sameRows(t, c.name, want, got)
					if c.bitset > 0 {
						checkWindowSpan(t, got)
					}
					seen := make(map[string]bool, got.Len())
					for _, row := range rowsOf(got) {
						k := string(appendRowKey(nil, row))
						if seen[k] {
							t.Fatalf("row %v emitted twice:\n%s", row, plan.Explain())
						}
						seen[k] = true
					}
				})
			}
		}
	}
}

// checkWindowSpan fails unless the answer's first column spans more than two
// bitset windows with a gap wider than one between two of its keys: the
// windows the bitset merge must walk and the gap it must jump.
func checkWindowSpan(t *testing.T, got *Relation) {
	t.Helper()
	keys := make([]dict.ID, 0, got.Len())
	for i := 0; i < got.Len(); i++ {
		keys = append(keys, got.At(i, 0))
	}
	slices.Sort(keys)
	gap := dict.ID(0)
	for i := 1; i < len(keys); i++ {
		gap = max(gap, keys[i]-keys[i-1])
	}
	if keys[len(keys)-1]-keys[0] <= 2*windowBits || gap <= windowBits {
		t.Fatalf("keys span %d IDs with a widest gap of %d: the fixture no longer crosses bitset windows",
			keys[len(keys)-1]-keys[0], gap)
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
