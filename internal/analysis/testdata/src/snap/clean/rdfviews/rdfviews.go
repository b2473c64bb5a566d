// Package rdfviews (fixture): every read pins one Snapshot; the live store
// is kept only where nothing reads through it.
package rdfviews

import (
	engine "lintfixtures/snap/clean"
	"lintfixtures/store"
)

type Database struct{ st *store.Store }

type version struct{ reader store.Reader }

type front struct{ st *store.Store }

func (db *Database) count() int {
	return engine.Count(db.st.Snapshot())
}

func (db *Database) pin() (version, front) {
	v := version{reader: db.st.Snapshot()}
	v.reader = db.st.Snapshot()
	return v, front{st: db.st}
}

func size(st *store.Store) int { return st.Len() }

func (db *Database) size() int { return size(db.st) }
