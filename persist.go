package rdfviews

import (
	"io"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/persist"
	"rdfviews/internal/plancache"
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

// SaveBundle writes the views as a self-contained client bundle: view
// definitions and extents (one generation of them), one rewriting and the
// query per workload query, and the dictionary — everything the paper's
// off-line client needs to answer the workload with no database connection
// (Section 1). One view set saves to the same bytes every time.
func (v *Views) SaveBundle(w io.Writer) error {
	b, err := persist.NewBundle(v.dict, v.texts, v.workload, v.plans, v.defs, v.extents())
	if err != nil {
		return err
	}
	return b.Save(w)
}

// LoadBundle reads a bundle written by Views.SaveBundle into a Views with no
// store and no maintainer. A bundle that decodes but cannot be answered from
// fails here with persist.ErrCorruptImage; its dictionary and extents are
// indexed once. A bundle written before bundles shipped the workload
// queries answers Answer(i) but routes no ad-hoc query.
func LoadBundle(r io.Reader) (*Views, error) {
	b, err := persist.LoadBundle(r)
	if err != nil {
		return nil, err
	}
	defs := make(map[algebra.ViewID]*cq.Query, len(b.Views))
	for _, bv := range b.Views {
		defs[bv.ID] = &cq.Query{Head: bv.Head, Atoms: bv.Atoms}
	}
	// No reader: a query that needs the store fails with ErrNoStore. Nothing
	// is reformulated, so lifting need not spare rdf:type's objects.
	return &Views{
		front:   front{cache: plancache.New(plancache.DefaultCapacity, nil), workload: b.Queries},
		plans:   b.Plans,
		defs:    defs,
		texts:   b.QueryTexts,
		dict:    b.Dict(),
		extents: fixed(b.Resolver()),
		at:      version{tag: "lv:bundle", stmt: "txt|"},
	}, nil
}
