// Package rdfviews (fixture): the serving path reformulating whole queries.
package rdfviews

import "lintfixtures/retired/stub/reason"

type Views struct{}

func openRewriting() int { return 0 }

func (v *Views) rewriting() int { return openRewriting() }

func reformulate() int { return reason.Reformulate() } // want `one plan per member: .*\(Reformulate\)`
