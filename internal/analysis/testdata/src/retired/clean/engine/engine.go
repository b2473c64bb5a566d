// Package engine (fixture): newUnion's one concatOp and a stream over one
// root operator.
package engine

type concatOp struct{ n int }

type RowStream struct {
	root *concatOp
	done bool
}

func newUnion() *concatOp { return &concatOp{} }
