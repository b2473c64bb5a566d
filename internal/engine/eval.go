package engine

import (
	"fmt"

	"rdfviews/internal/cq"
	"rdfviews/internal/store"
)

// streamUCQ streams a union of conjunctive queries with set semantics: the
// distinct union of the members' answers, aligned positionally on the head.
func streamUCQ(st store.Reader, u *cq.UCQ) (*RowStream, error) {
	if u.Len() == 0 {
		return nil, fmt.Errorf("engine: empty union")
	}
	streams := make([]*RowStream, len(u.Queries))
	for i, q := range u.Queries {
		p, err := PlanQuery(st, q)
		if err != nil {
			return nil, err
		}
		streams[i] = p.EvalStream(ExecOptions{})
	}
	return UnionStreams(streams, 64)
}

// CountUCQ returns the number of distinct answers of the union on the store.
func CountUCQ(st store.Reader, u *cq.UCQ) (int, error) {
	rs, err := streamUCQ(st, u)
	if err != nil {
		return 0, err
	}
	defer rs.Close()
	n := 0
	for {
		rows, err := rs.Next()
		if err != nil || rows == nil {
			return n, err
		}
		n += len(rows)
	}
}

// Materialize evaluates a conjunctive query (a view, or any query) over the
// triple store: it plans the query (planner.go), streams the operator
// pipeline (pipeline.go) and collects the distinct head tuples into a
// relation labeled by the head.
func Materialize(st store.Reader, view *cq.Query) (*Relation, error) {
	p, err := PlanQuery(st, view)
	if err != nil {
		return nil, err
	}
	return p.EvalStream(ExecOptions{}).Collect()
}

// MaterializeUCQ materializes a union view: the reformulated views v′ of
// post-reformulation (Section 4.3) are unions of conjunctive queries whose
// distinct answers on the non-saturated store equal the original view's
// answers on the saturated one (Theorem 4.2).
func MaterializeUCQ(st store.Reader, view *cq.UCQ) (*Relation, error) {
	rs, err := streamUCQ(st, view)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}
