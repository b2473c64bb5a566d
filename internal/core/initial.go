package core

import (
	"fmt"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
)

// InitialState builds S0(Q) = ⟨V0, R0⟩ with V0 = Q and each rewriting a
// plain view scan (Section 5.1). Queries must be connected (queries with
// Cartesian products are represented by their independent sub-queries,
// Definition 2.1 — split them before calling) and are minimized on the way
// in. The returned Ctx must be used for all subsequent transitions.
func InitialState(queries []*cq.Query) (*State, *Ctx, error) {
	if len(queries) == 0 {
		return nil, nil, fmt.Errorf("core: empty workload")
	}
	maxVar := 0
	for i, q := range queries {
		if err := q.Validate(); err != nil {
			return nil, nil, fmt.Errorf("core: query %d: %w", i+1, err)
		}
		if !q.IsConnected() {
			return nil, nil, fmt.Errorf("core: query %d has a Cartesian product; split it into independent sub-queries first", i+1)
		}
		if len(q.Head) == 0 {
			return nil, nil, fmt.Errorf("core: query %d has an empty head", i+1)
		}
		if mv := q.MaxVarNum(); mv > maxVar {
			maxVar = mv
		}
	}
	ctx := NewCtx(maxVar)
	views := make([]*View, len(queries))
	plans := make([]algebra.Plan, len(queries))
	for i, q := range queries {
		m := q.Minimize()
		views[i] = ctx.NewView(m)
		plans[i] = algebra.NewScan(views[i].ID, m.Head)
	}
	return newState(views, plans, listScans(plans), StageVB).publish(), ctx, nil
}

// InitialStateUCQ builds the pre-reformulation initial state of Section 4.3:
// every union term of every reformulated query becomes a view, and the
// rewriting of query i is the union of scans of its terms:
//
//	S0(Q) = ⟨ ∪i {q i 1..q i ni},  { qi = q i 1 ∪ … ∪ q i ni } ⟩
//
// reformulations[i] must be the reformulation of queries[i] and share its
// head arity.
func InitialStateUCQ(queries []*cq.Query, reformulations []*cq.UCQ) (*State, *Ctx, error) {
	if len(queries) == 0 || len(queries) != len(reformulations) {
		return nil, nil, fmt.Errorf("core: need one reformulation per query (have %d and %d)",
			len(queries), len(reformulations))
	}
	maxVar := 0
	for i, u := range reformulations {
		if u.Len() == 0 {
			return nil, nil, fmt.Errorf("core: empty reformulation for query %d", i+1)
		}
		for _, q := range u.Queries {
			if err := q.Validate(); err != nil {
				return nil, nil, fmt.Errorf("core: reformulation of query %d: %w", i+1, err)
			}
			if mv := q.MaxVarNum(); mv > maxVar {
				maxVar = mv
			}
		}
	}
	ctx := NewCtx(maxVar)
	var views []*View
	plans := make([]algebra.Plan, len(queries))
	for i, u := range reformulations {
		arity := len(queries[i].Head)
		branches := make([]algebra.Plan, 0, u.Len())
		for _, term := range u.Queries {
			if len(term.Head) != arity {
				return nil, nil, fmt.Errorf("core: reformulation term of query %d has arity %d, want %d",
					i+1, len(term.Head), arity)
			}
			m := term.Minimize()
			if !m.IsConnected() {
				m = term // keep product-free form; see finishView
			}
			v := ctx.NewView(m)
			views = append(views, v)
			branches = append(branches, algebra.NewScan(v.ID, m.Head))
		}
		if len(branches) == 1 {
			plans[i] = branches[0]
		} else {
			plans[i] = algebra.NewUnion(branches...)
		}
	}
	return newState(views, plans, listScans(plans), StageVB).publish(), ctx, nil
}
