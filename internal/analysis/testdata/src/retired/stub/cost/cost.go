// Package cost (fixture stub) declares the estimator.
package cost

type Estimator struct{ CM float64 }

func NewEstimator() *Estimator { return &Estimator{} }

func (e *Estimator) CalibrateCM() float64 { return e.CM }
