// Package dict (fixture): the arena dictionary's shape — term bytes in
// chunks, 32-bit offsets, an open-addressed table of IDs — and a term slice
// built for serialization, which no field keeps.
package dict

import "lintfixtures/retired/stub/rdf"

type ID int64

type View struct {
	n     int
	offs  [][]uint32
	arena [][]byte
}

type Dictionary struct {
	all   View
	slots []uint32
}

func (d *Dictionary) Terms() []rdf.Term { return make([]rdf.Term, d.all.n) }
