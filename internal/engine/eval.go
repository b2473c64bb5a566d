package engine

import (
	"fmt"

	"rdfviews/internal/cq"
	"rdfviews/internal/store"
)

// EvalQuery evaluates a conjunctive query over the triple store by compiling
// it to a physical plan (planner.go) and draining the operator pipeline
// (pipeline.go). Results are distinct head tuples.
func EvalQuery(st store.Reader, q *cq.Query) (*Relation, error) {
	p, err := PlanQuery(st, q)
	if err != nil {
		return nil, err
	}
	return p.Eval()
}

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
	if len(streams) == 1 {
		return streams[0], nil // one member: already distinct
	}
	return UnionStreams(streams, 64)
}

// EvalUCQ evaluates a union of conjunctive queries with set semantics.
func EvalUCQ(st store.Reader, u *cq.UCQ) (*Relation, error) {
	rs, err := streamUCQ(st, u)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

// CountQuery returns the number of distinct answers of q on the store.
func CountQuery(st store.Reader, q *cq.Query) (int, error) {
	r, err := EvalQuery(st, q)
	if err != nil {
		return 0, err
	}
	return r.Len(), nil
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

// Materialize evaluates the view (a conjunctive query) and returns its
// extension as a relation labeled by the view's head.
func Materialize(st store.Reader, view *cq.Query) (*Relation, error) {
	return EvalQuery(st, view)
}

// MaterializeUCQ materializes a union view: the reformulated views v′ of
// post-reformulation (Section 4.3) are unions of conjunctive queries whose
// distinct answers on the non-saturated store equal the original view's
// answers on the saturated one (Theorem 4.2).
func MaterializeUCQ(st store.Reader, view *cq.UCQ) (*Relation, error) {
	return EvalUCQ(st, view)
}
