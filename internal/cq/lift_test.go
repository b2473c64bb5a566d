package cq

import (
	"testing"

	"rdfviews/internal/dict"
)

const tType dict.ID = 99 // stands in for rdf:type in these tests

func TestLiftConstantsRules(t *testing.T) {
	x := Var(1)
	c := func(id int64) Term { return Const(dict.ID(id)) }

	cases := []struct {
		name   string
		q      *Query
		params int
		vals   []dict.ID
	}{
		{"subject always lifts", NewQuery([]Term{x}, []Atom{{c(5), c(2), x}}), 1, []dict.ID{5}},
		{"object under plain const predicate lifts", NewQuery([]Term{x}, []Atom{{x, c(2), c(7)}}), 1, []dict.ID{7}},
		{"object of a type atom stays", NewQuery([]Term{x}, []Atom{{x, Const(tType), c(7)}}), 0, nil},
		{"object under variable predicate stays", NewQuery([]Term{x}, []Atom{{x, Var(2), c(7)}}), 0, nil},
		{"predicate never lifts", NewQuery([]Term{x}, []Atom{{x, c(2), Var(2)}}), 0, nil},
		{"head constant stays, body occurrence lifts",
			NewQuery([]Term{x, c(7)}, []Atom{{x, c(2), c(7)}}), 1, []dict.ID{7}},
		{"both positions of one atom lift",
			NewQuery([]Term{}, []Atom{{c(5), c(2), c(7)}}), 2, []dict.ID{5, 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			skel, params, vals := LiftConstants(tc.q, tType)
			if len(params) != tc.params || len(vals) != len(params) {
				t.Fatalf("lifted %d params (vals %v), want %d", len(params), vals, tc.params)
			}
			for i, v := range tc.vals {
				if vals[i] != v {
					t.Fatalf("vals = %v, want %v", vals, tc.vals)
				}
			}
			// Binding the parameters back must reproduce the original query.
			bound := skel.Clone()
			for i, p := range params {
				bound = bound.Substitute(p, Const(vals[i]))
			}
			if !Equivalent(bound, tc.q) {
				t.Fatalf("skeleton with binding not equivalent to original:\n  %v\n  %v", bound, tc.q)
			}
			// Head constants are never lifted.
			for i, h := range tc.q.Head {
				if skel.Head[i] != h && h.IsConst() {
					t.Fatalf("head constant lifted: %v -> %v", h, skel.Head[i])
				}
			}
		})
	}
}

func TestLiftConstantsSharesSkeleton(t *testing.T) {
	// Two queries differing only in a liftable constant share a skeleton code
	// with identical parameter positions — the prepared-query contract.
	x, y := Var(1), Var(2)
	p := Const(dict.ID(2))
	q1 := NewQuery([]Term{x}, []Atom{{x, p, Const(dict.ID(10))}, {x, p, y}})
	q2 := NewQuery([]Term{x}, []Atom{{x, p, Const(dict.ID(11))}, {x, p, y}})

	s1, p1, v1 := LiftConstants(q1, tType)
	s2, p2, v2 := LiftConstants(q2, tType)
	if len(p1) != 1 || len(p2) != 1 || v1[0] != 10 || v2[0] != 11 {
		t.Fatalf("unexpected lift: %v/%v %v/%v", p1, v1, p2, v2)
	}
	l1, l2 := s1.Label(SetHead), s2.Label(SetHead)
	if l1.Code != l2.Code {
		t.Fatalf("skeleton codes differ:\n  %s\n  %s", l1.Code, l2.Code)
	}
	if l1.Num(p1[0]) != l2.Num(p2[0]) {
		t.Fatalf("parameter canonical numbers differ: %d vs %d", l1.Num(p1[0]), l2.Num(p2[0]))
	}
}
