// Command bench (fixture): the benchmark keeps its own names and its own
// selection pipeline.
package main

import "lintfixtures/retired/stub/core"

func decodeRows() int { return core.Search() }

func main() { _ = decodeRows() }
