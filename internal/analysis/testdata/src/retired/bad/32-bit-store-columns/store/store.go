// Package store (fixture): a snapshot that keeps 24-byte Triple rows.
package store

type Triple [3]uint64

type snap struct {
	triples []Triple // want `32-bit store columns: .*snap\.triples\)`
	live    int
}
