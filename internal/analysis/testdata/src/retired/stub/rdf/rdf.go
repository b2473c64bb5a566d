// Package rdf (fixture stub) declares the term type the "arena dictionary"
// row names: rdf.Term.
package rdf

type Term struct {
	Kind  uint8
	Value string
}
