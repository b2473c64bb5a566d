// Package facade (fixture): the Database's own decoder.
package facade

func decodeRows() int { return 0 } // want `one answering path: .*\(decodeRows\)`
