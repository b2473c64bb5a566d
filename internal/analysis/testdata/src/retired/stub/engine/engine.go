// Package engine (fixture stub) declares a relation and the engine's set of
// rows.
package engine

type Relation struct{ n int }

type RowIndex struct{ rel *Relation }
