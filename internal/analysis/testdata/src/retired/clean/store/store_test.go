package store

var reference = resortedRuns(nil)
