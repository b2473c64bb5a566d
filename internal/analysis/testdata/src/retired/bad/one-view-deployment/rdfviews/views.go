// Package rdfviews (fixture): a per-state deployment type with its own
// rewriting opener.
package rdfviews

type Views struct{}

func openRewriting() int { return 0 }

func (v *Views) rewriting() int { return openRewriting() }

type Materialized struct{} // want `one view deployment: .*\(Materialized\)`

func (m *Materialized) rewriting() int { return openRewriting() } // want `one view deployment: .*want one site of rdfviews\.openRewriting, found 2`
