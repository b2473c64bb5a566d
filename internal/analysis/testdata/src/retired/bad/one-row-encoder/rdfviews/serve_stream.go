// Package rdfviews (fixture): a per-stream decode memo.
package rdfviews

type Views struct{}

func openRewriting() int { return 0 }

func (v *Views) rewriting() int { return openRewriting() }

type memoEntry struct{ id uint64 } // want `one row encoder: .*\(memoEntry\)`
