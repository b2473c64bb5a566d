package rdfviews

import (
	"lintfixtures/retired/stub/core"
	"lintfixtures/retired/stub/cost"
)

func recommend() int {
	est := cost.NewEstimator()
	est.CM = est.CalibrateCM()
	return core.InitialState() + core.Search()
}
