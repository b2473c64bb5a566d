package rdfviews

import "lintfixtures/retired/stub/reason"

func storeForm() int { return reason.ReformulateAtoms() }

func compileStoreTemplate() int { return reason.ReformulateAtoms() } // want `one store form: .*want one site of reason\.ReformulateAtoms, found 2`
