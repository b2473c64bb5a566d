package exec

var n = EvalQuery() // want `one way into the engine: .*\(EvalQuery\)`
