package rdfviews

import (
	"context"
	"io"

	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/persist"
)

// Save writes a binary snapshot of the database (dictionary, triples,
// schema) that OpenDatabase restores.
func (db *Database) Save(w io.Writer) error {
	return persist.SaveDatabase(w, db.st, db.schema)
}

// OpenDatabase restores a database saved with Save.
func OpenDatabase(r io.Reader) (*Database, error) {
	st, schema, err := persist.LoadDatabase(r)
	if err != nil {
		return nil, err
	}
	return newDatabase(st, schema), nil
}

// SaveBundle writes the materialized view set as a self-contained client
// bundle: view definitions and extents, one rewriting per workload query,
// and the dictionary — everything the paper's off-line client needs to
// answer the workload with no database connection (Section 1).
func (m *Materialized) SaveBundle(w io.Writer) error {
	b, err := persist.NewBundle(
		m.rec.db.st.Dict(),
		m.rec.workload.Queries,
		m.rec.state.Plans,
		m.rec.state.ViewQueries(),
		m.extents,
	)
	if err != nil {
		return err
	}
	return b.Save(w)
}

// OfflineViews is a loaded client bundle: it answers the workload queries it
// was built for, entirely from the shipped views.
type OfflineViews struct {
	bundle  *persist.Bundle
	dict    *dict.Dictionary
	resolve engine.ViewResolver
}

// LoadBundle reads a bundle written by Materialized.SaveBundle. A bundle that
// decodes but cannot be answered from fails here with
// persist.ErrCorruptImage; its dictionary and extents are indexed once.
func LoadBundle(r io.Reader) (*OfflineViews, error) {
	b, err := persist.LoadBundle(r)
	if err != nil {
		return nil, err
	}
	return &OfflineViews{bundle: b, dict: b.Dict(), resolve: b.Resolver()}, nil
}

// NumQueries returns the number of workload queries the bundle can answer.
func (o *OfflineViews) NumQueries() int { return o.bundle.NumQueries() }

// NumRows returns the total shipped view tuples.
func (o *OfflineViews) NumRows() int { return o.bundle.NumRows() }

// QueryText renders workload query i (for display).
func (o *OfflineViews) QueryText(i int) string {
	if i < 0 || i >= len(o.bundle.QueryTexts) {
		return ""
	}
	return o.bundle.QueryTexts[i]
}

// Answer executes the rewriting of workload query i over the shipped views
// and returns decoded rows.
func (o *OfflineViews) Answer(i int) ([][]string, error) {
	rs, err := openRewriting(context.Background(), o.bundle.Plans, i, o.resolve)
	if err != nil {
		return nil, err
	}
	return newAnswerStream(rs, nil, o.dict).collect()
}
