// Package engine (fixture): an extent that keeps []Row.
package engine

type Row []uint64

type Relation struct {
	Rows []Row // want `32-bit extents: .*Relation\.Rows\)`
}

type concatOp struct{}

func newUnion() *concatOp { return &concatOp{} }
