// Package rdfviews (fixture): views materialized in reformulation's product
// form beside pre's initial state, and a second per-atom reformulation.
package rdfviews

import "lintfixtures/retired/stub/reason"

type Views struct{}

func openRewriting() int { return 0 }

func (v *Views) rewriting() int { return openRewriting() }

func members() int { return reason.Reformulate() }

func initialState() int { return reason.Reformulate() } // want `one store form: .*want one site of reason\.Reformulate, found 2`
