// Package persist serializes the library's artifacts: database snapshots
// (dictionary + triples + schema) and view bundles — the self-contained
// client shipment of the paper's three-tier scenario: recommended view
// definitions, their materialized extents, the workload queries with one
// rewriting plan each, and the dictionary needed to decode answers. A client
// loading a bundle answers every workload query with no database connection.
//
// The format is stdlib encoding/gob with the plan node types registered.
package persist

import (
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

func init() {
	gob.Register(&algebra.Scan{})
	gob.Register(&algebra.Select{})
	gob.Register(&algebra.Project{})
	gob.Register(&algebra.Join{})
	gob.Register(&algebra.Union{})
}

// FormatVersion is the current snapshot/bundle format. Version 2 added
// per-shard database sections; version 3 added the placement metadata of
// dual-partitioned layouts (object-side shard count). Readers accept version
// 1 and 2 artifacts for backward compatibility.
const FormatVersion = 3

// oldestReadableVersion is the earliest format readers still understand.
const oldestReadableVersion = 1

// databaseImage is the gob form of a database snapshot. Version 1 wrote the
// flat Triples list; version 2 writes Shards + Sections (one triple section
// per store shard), so a sharded store round-trips with its partitioning;
// version 3 adds ObjectShards so a dual-partitioned store round-trips with
// its full placement. Only subject-side sections are written — the object
// side holds replicas of the same triples, so it is rebuilt on load rather
// than stored twice. Gob leaves absent fields zero, which is
// how newer readers recognize older images.
type databaseImage struct {
	Version      int
	Terms        []rdf.Term
	Triples      []store.Triple // v1 layout; nil in v2+ images
	Schema       []rdf.Statement
	Shards       int              // v2: subject-side shard count (0 in v1 images)
	Sections     [][]store.Triple // v2: per-subject-shard triples
	ObjectShards int              // v3: object-side shard count (0 = subject-only)
}

// SaveDatabase writes a snapshot of the store and schema, with one section
// per shard. The shard sections are pinned before the dictionary: the
// dictionary is append-only, so terms captured last are always a superset of
// the IDs in the earlier-pinned triples even when writers run concurrently.
func SaveDatabase(w io.Writer, st *store.Store, schema *rdf.Schema) error {
	img := databaseImage{
		Version:      FormatVersion,
		Shards:       st.NumShards(),
		ObjectShards: st.Placement().ObjectShards,
	}
	img.Sections = make([][]store.Triple, st.NumShards())
	for i := range img.Sections {
		img.Sections[i] = st.ShardTriples(i)
	}
	img.Terms = st.Dict().Terms()
	if schema != nil {
		img.Schema = schema.Statements()
	}
	return gob.NewEncoder(w).Encode(&img)
}

// ErrCorruptImage reports a database image or view bundle that decoded but
// cannot be used: a triple or extent row naming a term the dictionary lacks,
// a term listed twice, a section count that disagrees with the shard count or
// a shard count no store is built with; in a bundle, a row narrower or wider
// than its view's columns, a view shipped twice, a plan scanning a view that
// is not shipped, or a workload query that is malformed, names a term the
// dictionary lacks or has no rewriting. Test for it with errors.Is.
var ErrCorruptImage = errors.New("persist: corrupt database image")

// validate checks everything LoadDatabase relies on before it builds a store
// from the image's triples (every section, concatenated), so that a damaged
// image is an error here and not an index panic when an answer is decoded
// later.
func (img *databaseImage) validate(triples []store.Triple) error {
	if img.Version >= 2 {
		if img.Shards < 1 || img.Shards > store.MaxShards {
			return fmt.Errorf("%w: %d subject shards", ErrCorruptImage, img.Shards)
		}
		if len(img.Sections) != img.Shards {
			return fmt.Errorf("%w: %d sections for %d shards", ErrCorruptImage, len(img.Sections), img.Shards)
		}
	}
	if img.ObjectShards < 0 || img.ObjectShards > store.MaxShards {
		return fmt.Errorf("%w: %d object shards", ErrCorruptImage, img.ObjectShards)
	}
	terms := dict.ID(len(img.Terms))
	for _, t := range triples {
		for _, id := range t {
			if id < 1 || id > terms {
				return fmt.Errorf("%w: triple %v names term %d of %d", ErrCorruptImage, t, id, terms)
			}
		}
	}
	return nil
}

// LoadDatabase reads a snapshot back into a fresh store and schema. Version 1
// images load into a single-shard store; version 2 images restore the shard
// count they were written with; version 3 images restore the full dual
// placement (older images load with ObjectShards zero — a subject-only
// layout, exactly what they were written from). The image is validated first
// (ErrCorruptImage), then every section goes into the store as one batch:
// each triple is routed by its own hash, whatever section it arrived in, each
// subject shard sorts its share once, and the object side — which images
// never carry — is grouped by object shard once and sorted once per shard.
func LoadDatabase(r io.Reader) (*store.Store, *rdf.Schema, error) {
	var img databaseImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, nil, fmt.Errorf("persist: decoding database: %w", err)
	}
	if img.Version < oldestReadableVersion || img.Version > FormatVersion {
		return nil, nil, fmt.Errorf("persist: unsupported format version %d", img.Version)
	}
	triples := slices.Concat(append(img.Sections, img.Triples)...)
	if err := img.validate(triples); err != nil {
		return nil, nil, err
	}
	d := dict.FromTerms(img.Terms)
	if d.Len() != len(img.Terms) {
		return nil, nil, fmt.Errorf("%w: %d distinct terms of %d", ErrCorruptImage, d.Len(), len(img.Terms))
	}
	st := store.NewWithDictDual(d, max(img.Shards, 1), img.ObjectShards)
	st.AddBatch(triples)
	schema := rdf.NewSchema()
	for _, s := range img.Schema {
		schema.Add(s)
	}
	return st, schema, nil
}

// BundleView is one view of a bundle: its definition and extent. Rows is
// the extent's image form: NewBundle fills it for Save, and LoadBundle
// empties it once the rows are validated and narrowed into the bundle's
// relations.
type BundleView struct {
	ID    algebra.ViewID
	Head  []cq.Term
	Atoms []cq.Atom
	Cols  []cq.Term
	Rows  []engine.Row
}

// Bundle is the client shipment: everything needed to answer the workload
// off-line.
type Bundle struct {
	Version int
	// Terms is the dictionary (decode answers; IDs are positions + 1).
	Terms []rdf.Term
	// QueryTexts renders each workload query (documentation only).
	QueryTexts []string
	// Queries holds the workload queries, which route an ad-hoc query that
	// matches one to its rewriting. A bundle written before they shipped
	// has none and answers by query index only.
	Queries []*cq.Query
	// Plans holds one rewriting per workload query, over the bundle views.
	Plans []algebra.Plan
	// Views holds definitions and extents, in view ID order.
	Views []BundleView

	dict    *dict.Dictionary                    // built and checked by LoadBundle; not serialized
	extents map[algebra.ViewID]*engine.Relation // the extents LoadBundle narrowed; not serialized
}

// NewBundle assembles a bundle from a deployed view set: the workload's
// texts and queries, one rewriting per query, and every view's definition
// with the extent resolve gives it. Views are written in ID order, so one
// view set always saves to the same bytes.
func NewBundle(d *dict.Dictionary, texts []string, queries []*cq.Query, plans []algebra.Plan,
	views map[algebra.ViewID]*cq.Query, resolve engine.ViewResolver) (*Bundle, error) {
	b := &Bundle{Version: FormatVersion, Terms: d.Terms(), QueryTexts: texts, Queries: queries, Plans: plans}
	for id, v := range views {
		ext, err := resolve(id)
		if err != nil {
			return nil, fmt.Errorf("persist: view v%d has no extent: %w", int(id), err)
		}
		b.Views = append(b.Views, BundleView{
			ID:    id,
			Head:  v.Head,
			Atoms: v.Atoms,
			Cols:  ext.Cols,
			Rows:  wideRows(ext),
		})
	}
	slices.SortFunc(b.Views, func(x, y BundleView) int { return cmp.Compare(x.ID, y.ID) })
	return b, nil
}

// wideRows widens an extent into the image's rows, all over one backing
// array.
func wideRows(ext *engine.Relation) []engine.Row {
	w := ext.Arity()
	flat := make([]dict.ID, ext.Len()*w)
	rows := make([]engine.Row, ext.Len())
	for i := range rows {
		rows[i] = ext.Row(i, flat[i*w:i*w:(i+1)*w])
	}
	return rows
}

// Save writes the bundle.
func (b *Bundle) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(b)
}

// LoadBundle reads a bundle and validates it (ErrCorruptImage), so that a
// damaged bundle fails here and not with an index panic or a wrong term when
// a query is answered from it.
func LoadBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("persist: decoding bundle: %w", err)
	}
	// The bundle layout is unchanged since version 1; accept the range.
	if b.Version < oldestReadableVersion || b.Version > FormatVersion {
		return nil, fmt.Errorf("persist: unsupported format version %d", b.Version)
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	b.narrow()
	return &b, nil
}

// narrow moves the validated extents into 32-bit relations and drops the
// decoded wide rows.
func (b *Bundle) narrow() {
	b.extents = make(map[algebra.ViewID]*engine.Relation, len(b.Views))
	for i := range b.Views {
		v := &b.Views[i]
		rel := engine.NewRelation(v.Cols)
		for _, row := range v.Rows {
			rel.Append(row)
		}
		b.extents[v.ID], v.Rows = rel, nil
	}
}

// validate checks everything answering from the bundle relies on: the terms
// are distinct, no view is shipped twice, every extent row is as wide as its
// view's columns and names only terms of the dictionary, the workload
// queries, when shipped, are one per rewriting and name only terms of the
// dictionary, and every view a plan scans is shipped. It keeps the
// dictionary it built.
func (b *Bundle) validate() error {
	d := dict.FromTerms(b.Terms)
	if d.Len() != len(b.Terms) {
		return fmt.Errorf("%w: %d distinct terms of %d", ErrCorruptImage, d.Len(), len(b.Terms))
	}
	terms := dict.ID(len(b.Terms))
	shipped := make(map[algebra.ViewID]bool, len(b.Views))
	for _, v := range b.Views {
		if shipped[v.ID] {
			return fmt.Errorf("%w: view v%d shipped twice", ErrCorruptImage, int(v.ID))
		}
		shipped[v.ID] = true
		for _, row := range v.Rows {
			if len(row) != len(v.Cols) {
				return fmt.Errorf("%w: view v%d has a row of %d values for %d columns", ErrCorruptImage, int(v.ID), len(row), len(v.Cols))
			}
			for _, id := range row {
				if id < 1 || id > terms {
					return fmt.Errorf("%w: view v%d names term %d of %d", ErrCorruptImage, int(v.ID), id, terms)
				}
			}
		}
	}
	if len(b.Queries) != 0 && len(b.Queries) != len(b.Plans) {
		return fmt.Errorf("%w: %d workload queries for %d rewritings", ErrCorruptImage, len(b.Queries), len(b.Plans))
	}
	for i, q := range b.Queries {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("%w: query %d: %v", ErrCorruptImage, i+1, err)
		}
		ts := slices.Clone(q.Head)
		for _, a := range q.Atoms {
			ts = append(ts, a[:]...)
		}
		for _, t := range ts {
			if t.IsConst() && t.ConstID() > terms {
				return fmt.Errorf("%w: query %d names term %d of %d", ErrCorruptImage, i+1, t.ConstID(), terms)
			}
		}
	}
	for i, p := range b.Plans {
		if p == nil {
			return fmt.Errorf("%w: query %d has no rewriting", ErrCorruptImage, i+1)
		}
		for _, id := range p.Views(nil) {
			if !shipped[id] {
				return fmt.Errorf("%w: query %d scans view v%d, which is not shipped", ErrCorruptImage, i+1, int(id))
			}
		}
	}
	b.dict = d
	return nil
}

// Dict returns the dictionary LoadBundle built and checked.
func (b *Bundle) Dict() *dict.Dictionary { return b.dict }

// Resolver exposes the extents LoadBundle narrowed to plan execution.
func (b *Bundle) Resolver() engine.ViewResolver { return engine.MapResolver(b.extents) }
