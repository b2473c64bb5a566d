// Package cq (fixture): the map-returning labeling and hand-rendered head
// tokens.
package cq

type Query struct{}

func (q Query) Canonicalize() map[int]int { return nil }

func headToken(q Query) string { return "" } // want `one canonical labeling: .*\(headToken\)`
