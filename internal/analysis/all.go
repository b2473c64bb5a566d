package analysis

// All returns every invariant analyzer in the suite, in the order they are
// reported.
func All() []*Analyzer {
	return []*Analyzer{Cancelcheck, Batchlease, Snappin, Ctxflow, Retired}
}
