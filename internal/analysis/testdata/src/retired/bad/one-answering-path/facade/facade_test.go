package facade

var epochPin = decodeRows() // want `one answering path: .*\(epochPin\)` `one answering path: .*\(decodeRows\)`
