// Package datagen synthesizes a "Barton-like" dataset: a library-catalog
// RDF graph with an RDF Schema of the same scale as the Barton RDFS used in
// the paper's experiments (39 classes, 61 properties, 106 RDFS statements —
// Section 6.5), skewed property usage, and configurable size.
//
// The real Barton dataset (an MIT library-catalog dump of ~50M triples) is
// not redistributable and far exceeds a laptop-scale reproduction; this
// generator preserves the properties the experiments depend on: the schema
// scale, a class/property hierarchy for reasoning to traverse, Zipf-like
// property frequencies, and enough join structure for satisfiable workloads.
package datagen

import (
	"fmt"
	"math/rand"

	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// Config sizes the generated dataset. Zero values select the Barton-schema
// defaults.
type Config struct {
	// Triples is the number of data triples to generate (default 50_000).
	Triples int
	// Classes is the number of classes (default 39, the Barton RDFS).
	Classes int
	// Properties is the number of properties (default 61).
	Properties int
	// SchemaStatements is the total number of RDFS statements (default 106).
	SchemaStatements int
	// Resources is the number of distinct subjects (default Triples/8).
	Resources int
	// Literals is the size of the literal pool (default Resources/4).
	Literals int
	Seed     int64
}

func (c Config) withDefaults() Config {
	if c.Triples <= 0 {
		c.Triples = 50000
	}
	if c.Classes <= 0 {
		c.Classes = 39
	}
	if c.Properties <= 0 {
		c.Properties = 61
	}
	if c.SchemaStatements <= 0 {
		c.SchemaStatements = 106
	}
	if c.Resources <= 0 {
		c.Resources = c.Triples/8 + 1
	}
	if c.Literals <= 0 {
		c.Literals = c.Resources/4 + 1
	}
	return c
}

// ClassName returns the i-th class IRI.
func ClassName(i int) string { return fmt.Sprintf("bartonlike:Class%d", i) }

// PropName returns the i-th property IRI.
func PropName(i int) string { return fmt.Sprintf("bartonlike:prop%d", i) }

// ResourceName returns the i-th resource IRI.
func ResourceName(i int) string { return fmt.Sprintf("bartonlike:res%d", i) }

// GenerateSchema builds the RDFS: a class forest (subClassOf), a property
// forest (subPropertyOf), and domain/range statements, totaling exactly
// cfg.SchemaStatements statements.
func GenerateSchema(cfg Config) *rdf.Schema {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	s := rdf.NewSchema()
	budget := cfg.SchemaStatements

	// Subclass forest: every class except roots points to a parent with a
	// smaller index. Roughly 1/3 of the budget.
	nSub := minInt(budget/3, cfg.Classes-1)
	for i := 1; i <= nSub; i++ {
		parent := rng.Intn(i)
		s.AddSubClass(ClassName(i), ClassName(parent))
	}
	budget -= nSub

	// Subproperty forest: roughly 1/4 of the budget.
	nSubP := minInt(budget/3, cfg.Properties-1)
	for i := 1; i <= nSubP; i++ {
		parent := rng.Intn(i)
		s.AddSubProperty(PropName(i), PropName(parent))
	}
	budget -= nSubP

	// Domain and range statements for distinct properties until the budget
	// is consumed.
	for i := 0; budget > 0; i++ {
		p := PropName(i % cfg.Properties)
		if i%2 == 0 {
			s.AddDomain(p, ClassName(rng.Intn(cfg.Classes)))
		} else {
			s.AddRange(p, ClassName(rng.Intn(cfg.Classes)))
		}
		if got := s.Len(); got >= cfg.SchemaStatements {
			break
		}
		budget = cfg.SchemaStatements - s.Len()
	}
	return s
}

// Generate builds the dataset and its schema into a fresh store.
func Generate(cfg Config) (*store.Store, *rdf.Schema) {
	st := store.New()
	return st, GenerateInto(st, cfg)
}

// GenerateInto adds the dataset to st, until st holds cfg.Triples triples,
// and returns its schema. Property usage follows a Zipf-like rank
// distribution (rank r has weight 1/(r+1)), ~20% of triples are rdf:type
// assertions, and ~15% of objects are literals, approximating the profile of
// library-catalog data.
func GenerateInto(st *store.Store, cfg Config) *rdf.Schema {
	cfg = cfg.withDefaults()
	schema := GenerateSchema(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := st.Dict()

	typeID := d.EncodeIRI(rdf.RDFType)
	classIDs := make([]dict.ID, cfg.Classes)
	for i := range classIDs {
		classIDs[i] = d.EncodeIRI(ClassName(i))
	}
	propIDs := make([]dict.ID, cfg.Properties)
	for i := range propIDs {
		propIDs[i] = d.EncodeIRI(PropName(i))
	}
	resIDs := make([]dict.ID, cfg.Resources)
	for i := range resIDs {
		resIDs[i] = d.EncodeIRI(ResourceName(i))
	}
	litIDs := make([]dict.ID, cfg.Literals)
	for i := range litIDs {
		litIDs[i] = d.Encode(rdf.NewLiteral(fmt.Sprintf("value %d", i)))
	}

	// Zipf-like cumulative weights over property ranks.
	cum := make([]float64, cfg.Properties)
	total := 0.0
	for i := range cum {
		total += 1.0 / float64(i+2)
		cum[i] = total
	}
	pickProp := func() dict.ID {
		x := rng.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return propIDs[lo]
	}
	// Resources are Zipf-ish too: low-index resources are hubs.
	pickRes := func() dict.ID {
		if rng.Intn(4) == 0 {
			return resIDs[rng.Intn(minInt(64, len(resIDs)))]
		}
		return resIDs[rng.Intn(len(resIDs))]
	}

	for st.Len() < cfg.Triples {
		sub := pickRes()
		switch {
		case rng.Float64() < 0.20: // type assertion
			st.Add(store.Triple{sub, typeID, classIDs[rng.Intn(len(classIDs))]})
		case rng.Float64() < 0.15: // literal-valued property
			st.Add(store.Triple{sub, pickProp(), litIDs[rng.Intn(len(litIDs))]})
		default: // resource-valued property
			st.Add(store.Triple{sub, pickProp(), pickRes()})
		}
	}
	return schema
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
