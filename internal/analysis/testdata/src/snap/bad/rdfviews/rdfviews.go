// Package rdfviews (fixture): root-package reads that hand the engine the
// live store instead of one pinned Snapshot per call.
package rdfviews

import (
	engine "lintfixtures/snap/bad"
	"lintfixtures/store"
)

type Database struct{ st *store.Store }

type version struct{ reader store.Reader }

func (db *Database) count() int {
	return engine.Count(db.st) // want `a root-package read hands the engine the live store`
}

func (db *Database) pin() version {
	v := version{reader: db.st} // want `a root-package read hands the engine the live store`
	v.reader = db.st.Snapshot()
	return v
}
