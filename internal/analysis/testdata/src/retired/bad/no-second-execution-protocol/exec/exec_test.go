package exec

var vop = ParallelUnionOp{} // want `\(vop\)` `\(ParallelUnionOp\)`

type ParallelUnionOp struct{} // want `\(ParallelUnionOp\)`
