// Package dict implements the dictionary encoding used by the storage layer:
// each distinct RDF term is mapped to a dense positive integer ID, mirroring
// the paper's "dictionary-encoded triple table, using a distinct integer for
// each distinct URI or literal" (Section 6).
//
// IDs start at 1; 0 is never a valid ID (the conjunctive-query layer reserves
// non-positive values for variables).
//
// The dictionary is safe for concurrent use: encoders take a write lock,
// decoders and lookups a read lock, matching the sharded store's
// readers-alongside-writers contract (a query decoding answers must not race
// an update encoding fresh terms).
//
// A dictionary that is served also keeps each term's SPARQL-JSON string
// literal, rendered and escaped once, in an append-only table (Literals,
// json.go); Render is the one rule every answer decodes an ID by.
package dict

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rdfviews/internal/rdf"
)

// ID is a dictionary code for one RDF term. Valid IDs are >= 1.
type ID int64

// Dictionary is a bidirectional mapping between RDF terms and IDs.
// The zero value is not usable; call New.
//
// Each term's bytes are held once: a term is filed under its kind, keyed by
// its value, so the map key and the terms slot share one string and a lookup
// builds no key. (A map keyed by the whole rdf.Term would hold the same
// bytes once too, but its slots are 8 B wider, more than the short terms of
// a typical graph save.)
type Dictionary struct {
	mu     sync.RWMutex
	byKind [rdf.Blank + 1]map[string]ID // value -> ID, per term kind
	terms  []rdf.Term                   // terms[i] has ID i+1

	litMu sync.Mutex               // serializes extending the rendered table
	lits  atomic.Pointer[Literals] // the rendered table; nil until first asked for
}

// New returns an empty dictionary.
func New() *Dictionary {
	d := &Dictionary{}
	for k := range d.byKind {
		d.byKind[k] = make(map[string]ID)
	}
	return d
}

// byValue is the map t is filed in. A kind past Blank files as a blank
// node, as Term.Key renders it.
func (d *Dictionary) byValue(t rdf.Term) map[string]ID { return d.byKind[min(t.Kind, rdf.Blank)] }

// Encode returns the ID for the term, assigning a fresh one on first sight.
func (d *Dictionary) Encode(t rdf.Term) ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.byValue(t)
	if id, ok := m[t.Value]; ok {
		return id
	}
	d.terms = append(d.terms, t)
	id := ID(len(d.terms))
	m[t.Value] = id
	return id
}

// EncodeIRI is Encode over a bare IRI string (after expanding the well-known
// rdf:/rdfs: prefixes).
func (d *Dictionary) EncodeIRI(iri string) ID {
	return d.Encode(rdf.NewIRI(rdf.ExpandIRI(iri)))
}

// Lookup returns the ID for the term if it is already in the dictionary.
func (d *Dictionary) Lookup(t rdf.Term) (ID, bool) {
	d.mu.RLock()
	id, ok := d.byValue(t)[t.Value]
	d.mu.RUnlock()
	return id, ok
}

// LookupIRI is Lookup over a bare IRI string.
func (d *Dictionary) LookupIRI(iri string) (ID, bool) {
	return d.Lookup(rdf.NewIRI(rdf.ExpandIRI(iri)))
}

// Decode returns the term for the ID. It returns an error for IDs that were
// never assigned.
func (d *Dictionary) Decode(id ID) (rdf.Term, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 1 || int(id) > len(d.terms) {
		return rdf.Term{}, fmt.Errorf("dict: ID %d out of range [1,%d]", id, len(d.terms))
	}
	return d.terms[id-1], nil
}

// MustDecode is Decode panicking on unknown IDs; for internal use where IDs
// are known to be valid.
func (d *Dictionary) MustDecode(id ID) rdf.Term {
	t, err := d.Decode(id)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of distinct terms in the dictionary.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// SortedIDs returns all assigned IDs in increasing order. Mostly useful for
// deterministic iteration in tests and statistics.
func (d *Dictionary) SortedIDs() []ID {
	out := make([]ID, d.Len())
	for i := range out {
		out[i] = ID(i + 1)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Terms returns the terms in ID order (Terms()[i] has ID i+1) — the
// serialization form used by the persistence layer, and the view answers
// are decoded against (Render). The returned slice must not be modified;
// concurrent encoders may append past its length, so it holds every ID
// assigned before the call.
func (d *Dictionary) Terms() []rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms
}

// FromTerms rebuilds a dictionary from a Terms() slice, preserving IDs.
func FromTerms(terms []rdf.Term) *Dictionary {
	d := New()
	for _, t := range terms {
		d.Encode(t)
	}
	return d
}
