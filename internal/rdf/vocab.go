package rdf

import "strings"

// Well-known vocabulary IRIs. The library accepts both the full form and the
// short prefixed form; ShortenIRI / ExpandIRI convert between them. All
// internal comparisons are made on the expanded form.
const (
	RDFNS  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	RDFSNS = "http://www.w3.org/2000/01/rdf-schema#"

	// RDFType is rdf:type.
	RDFType = RDFNS + "type"
	// RDFSSubClassOf is rdfs:subClassOf.
	RDFSSubClassOf = RDFSNS + "subClassOf"
	// RDFSSubPropertyOf is rdfs:subPropertyOf.
	RDFSSubPropertyOf = RDFSNS + "subPropertyOf"
	// RDFSDomain is rdfs:domain.
	RDFSDomain = RDFSNS + "domain"
	// RDFSRange is rdfs:range.
	RDFSRange = RDFSNS + "range"
	// RDFSClass is rdfs:Class.
	RDFSClass = RDFSNS + "Class"
)

var shortToLong = map[string]string{
	"rdf:type":           RDFType,
	"rdfs:subClassOf":    RDFSSubClassOf,
	"rdfs:subPropertyOf": RDFSSubPropertyOf,
	"rdfs:domain":        RDFSDomain,
	"rdfs:range":         RDFSRange,
	"rdfs:Class":         RDFSClass,
}

var longToShort = map[string]string{
	RDFType:           "rdf:type",
	RDFSSubClassOf:    "rdfs:subClassOf",
	RDFSSubPropertyOf: "rdfs:subPropertyOf",
	RDFSDomain:        "rdfs:domain",
	RDFSRange:         "rdfs:range",
	RDFSClass:         "rdfs:Class",
}

// ExpandIRI maps the short prefixed notation of the well-known vocabulary
// ("rdf:type", "rdfs:subClassOf", ...) to the full IRI. Unknown strings are
// returned unchanged.
func ExpandIRI(s string) string {
	if l, ok := shortToLong[s]; ok {
		return l
	}
	return s
}

// ShortenIRI is the inverse of ExpandIRI for the well-known vocabulary. An
// IRI outside the W3C's namespace, or shorter than rdfs:range or longer than
// rdfs:subPropertyOf, is none of it and is returned without hashing
// (TestShortenIRIGate holds every vocabulary IRI inside the gate).
func ShortenIRI(s string) string {
	if len(s) < len(RDFSRange) || len(s) > len(RDFSSubPropertyOf) || !strings.HasPrefix(s, "http://www.w3.org/") {
		return s
	}
	if sh, ok := longToShort[s]; ok {
		return sh
	}
	return s
}

// IsSchemaProperty reports whether the IRI is one of the four RDFS schema
// properties of Table 1 (subClassOf, subPropertyOf, domain, range).
func IsSchemaProperty(iri string) bool {
	switch iri {
	case RDFSSubClassOf, RDFSSubPropertyOf, RDFSDomain, RDFSRange:
		return true
	}
	return false
}
