// Package stats (fixture): the constructor that took globals derived
// elsewhere.
package stats

func NewReformulatedStatsFrom() int { return 0 } // want `no second statistics pin: .*\(NewReformulatedStatsFrom\)`
