// Package server (fixture): a slab encoder of decoded string rows.
package server

type encoder struct{ buf []byte }

func (e *encoder) rows(rows [][]string) {} // want `one row encoder: .*\(rows\)`
