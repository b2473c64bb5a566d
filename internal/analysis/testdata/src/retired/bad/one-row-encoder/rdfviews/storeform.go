package rdfviews

import "lintfixtures/retired/stub/reason"

// Pre's initial state and the one store form.
var initial, storeForm = reason.Reformulate(), reason.ReformulateAtoms()
