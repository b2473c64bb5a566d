// Package exec (fixture): an alias entry point and a second materializing
// drain.
package exec

func EvalQuery() int { return materialize() } // want `one way into the engine: .*\(EvalQuery\)`

func materialize() int { return 0 } // want `one way into the engine: .*\(materialize\)`
