// Package dict (fixture): a dictionary that keeps a slice of terms and maps
// keyed by value.
package dict

import "lintfixtures/retired/stub/rdf"

type ID int64

type Dictionary struct {
	byKind [3]map[string]ID // want `arena dictionary: .*Dictionary\.byKind\)`
	terms  []rdf.Term       // want `arena dictionary: .*Dictionary\.terms\)`
	ids    map[string]ID    // want `arena dictionary: .*Dictionary\.ids\)`
}
