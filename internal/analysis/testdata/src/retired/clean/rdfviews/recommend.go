package rdfviews

import (
	"lintfixtures/retired/stub/core"
	"lintfixtures/retired/stub/cost"
	"lintfixtures/retired/stub/reason"
)

func recommend(pre bool) int {
	est := cost.NewEstimator()
	est.CM = est.CalibrateCM()
	if pre {
		return core.InitialStateUCQ() + reason.Reformulate() + core.Search()
	}
	return core.InitialState() + core.Search()
}
