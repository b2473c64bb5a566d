package rdfviews

import "lintfixtures/retired/stub/reason"

// The test oracle saturates, and compares member-wise serving against the
// whole union.
var oracle = reason.Saturate() + reason.Reformulate() + openRewriting()
