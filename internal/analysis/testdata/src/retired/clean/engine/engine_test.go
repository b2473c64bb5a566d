package engine

// Tests may build operators by hand and keep rows in a map.
type rowSet map[string]bool

var unionEst = &concatOp{n: 2}
