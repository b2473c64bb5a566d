// Package engine (fixture): the copied-row set and a flat build side.
package engine

type rowSet map[string]bool // want `one row set: .*\(rowSet\)`

type joinTable struct {
	flat []uint64 // want `one row set: .*joinTable\.flat\)`
	cols [][]uint32
}

type concatOp struct{}

func newUnion() *concatOp { return &concatOp{} }
