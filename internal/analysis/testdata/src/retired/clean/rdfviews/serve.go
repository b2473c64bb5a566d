package rdfviews

import "lintfixtures/retired/stub/reason"

func reformulate() int { return reason.ReformulateAtoms() }
