// Package rdfviews (fixture): the one rewriting opener and the one
// selection pipeline.
package rdfviews

type Views struct{}

func openRewriting() int { return 0 }

func (v *Views) rewriting() int { return openRewriting() }
