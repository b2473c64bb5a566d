package stats

var reformGlobals = NewReformulatedStatsFrom() // want `\(reformGlobals\)` `\(NewReformulatedStatsFrom\)`
