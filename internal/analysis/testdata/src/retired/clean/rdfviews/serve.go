package rdfviews

import "lintfixtures/retired/stub/reason"

func storeForm() int { return reason.ReformulateAtoms() }

func members() int { return storeForm() }

func compileStoreTemplate() int { return storeForm() }
