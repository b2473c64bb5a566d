// Package engine (fixture): a second concatOp, a second union's estimate,
// and a stream that pulls through a closure.
package engine

type concatOp struct{ n int }

type RowStream struct {
	root *concatOp
	next func() bool // want `one union: .*RowStream\.next\)`
}

var unionEst = 1 // want `one union: .*\(unionEst\)`

func newUnion() *concatOp { return &concatOp{} }

func newStreamUnion() *concatOp { return &concatOp{n: unionEst} } // want `one union: .*\(unionEst\)` `one union: .*want one site of engine\.concatOp, found 2`
