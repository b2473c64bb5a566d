package cost

import (
	"math/rand"
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// TestUnionCostFoldsLegCostings: folding the costings of a union's branches,
// each costed on its own, gives the costing of the whole union to the bit —
// what lets a search keep its union legs' costings and re-cost only the legs
// a transition rewrote.
func TestUnionCostFoldsLegCostings(t *testing.T) {
	e := newFakeEstimator()
	x, y, z, w := cq.Var(1), cq.Var(2), cq.Var(3), cq.Var(4)
	views := map[algebra.ViewID]*cq.Query{
		1: {Head: []cq.Term{x, y}, Atoms: []cq.Atom{{x, cq.Const(5), y}}},
		2: {Head: []cq.Term{y, z}, Atoms: []cq.Atom{{y, cq.Const(6), z}}},
		3: {Head: []cq.Term{x}, Atoms: []cq.Atom{{x, cq.Const(5), cq.Const(9)}}},
		4: {Head: []cq.Term{x, z}, Atoms: []cq.Atom{{x, w, z}}},
		5: {Head: []cq.Term{x, z}, Atoms: []cq.Atom{{x, cq.Const(5), y}, {y, cq.Const(6), z}}},
	}
	view := func(id algebra.ViewID) *cq.Query { return views[id] }
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 500; n++ {
		branches := make([]algebra.Plan, 1+rng.Intn(12))
		legs := make([]PlanCosting, len(branches))
		for b := range branches {
			branches[b] = randomPlan(rng, views, 3)
			legs[b] = e.PlanCostBy(branches[b], view)
		}
		u := algebra.NewUnion(branches...)
		got := UnionCost(len(legs), func(b int) PlanCosting { return legs[b] })
		want := e.PlanCostBy(u, view)
		if got.Card != want.Card || got.IO != want.IO || got.CPU != want.CPU || e.PlanREC(got) != e.PlanREC(want) {
			t.Fatalf("%s: folded legs %+v, the whole union %+v", u, got, want)
		}
	}
}

// randomPlan builds a plan of at most depth selections, projections and
// joins over scans of views.
func randomPlan(rng *rand.Rand, views map[algebra.ViewID]*cq.Query, depth int) algebra.Plan {
	if depth == 0 || rng.Intn(3) == 0 {
		id := algebra.ViewID(1 + rng.Intn(len(views)))
		return algebra.NewScan(id, views[id].Head)
	}
	in := randomPlan(rng, views, depth-1)
	cols := in.Columns()
	switch rng.Intn(3) {
	case 0:
		c := algebra.Cond{Left: cols[rng.Intn(len(cols))], Right: cols[rng.Intn(len(cols))]}
		if rng.Intn(2) == 0 {
			c.Right = cq.Const(dict.ID(5 + rng.Intn(5)))
		}
		return algebra.NewSelect(in, c)
	case 1:
		return algebra.NewProject(in, cols[:1+rng.Intn(len(cols))])
	default:
		return algebra.NewJoin(in, randomPlan(rng, views, depth-1))
	}
}
