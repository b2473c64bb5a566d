// Package harness (fixture): a selection pipeline beside Recommend.
package harness

import (
	"lintfixtures/retired/stub/core"
	"lintfixtures/retired/stub/cost"
)

func selectViews() int {
	s0 := core.InitialStateUCQ() // want `one objective: .*\(InitialStateUCQ\)`
	est := cost.NewEstimator()   // want `one objective: .*\(NewEstimator\)`
	est.CM = est.CalibrateCM()   // want `one objective: .*\(CalibrateCM\)`
	return s0 + core.Search()    // want `one objective: .*\(Search\)`
}
