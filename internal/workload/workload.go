// Package workload implements the two query generators of Section 6 ("Data
// and queries"): a free-standing generator producing workloads of
// controllable size, shape and commonality, and a dataset-driven generator
// producing queries guaranteed to be satisfiable on a given store.
//
// The shapes are the ones evaluated in Figures 4 and 6: star queries (clique
// query graphs, the hard case for the search), chains (the average case),
// cycles, random graphs in sparse and dense variants, and mixed workloads.
package workload

import (
	"fmt"
	"math/rand"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
	"rdfviews/internal/store"
)

// rdfTypeIRI is the expanded rdf:type IRI, looked up when abstracting
// dataset triples into query atoms.
const rdfTypeIRI = rdf.RDFType

// Shape selects the query graph shape.
type Shape int

// The workload shapes of Section 6.4.
const (
	Star Shape = iota
	Chain
	Cycle
	RandomSparse
	RandomDense
	Mixed
)

func (s Shape) String() string {
	switch s {
	case Star:
		return "star"
	case Chain:
		return "chain"
	case Cycle:
		return "cycle"
	case RandomSparse:
		return "random-sparse"
	case RandomDense:
		return "random-dense"
	case Mixed:
		return "mixed"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// Commonality controls how much structure queries share. High-commonality
// workloads derive queries from a small pool of seed patterns, giving the
// search many view fusion opportunities; low-commonality queries are
// independent.
type Commonality int

// The two commonality levels of Figures 4 and 6.
const (
	Low Commonality = iota
	High
)

func (c Commonality) String() string {
	if c == High {
		return "high"
	}
	return "low"
}

// Spec describes a workload to generate.
type Spec struct {
	Queries       int
	AtomsPerQuery int
	Shape         Shape
	Commonality   Commonality
	// Properties and Constants bound the vocabulary; zero picks defaults
	// scaled to the workload (more atoms → more properties).
	Properties int
	Constants  int
	// PropVocab and ConstVocab, when non-empty, supply the IRIs the
	// generator draws from (e.g. the properties of a generated dataset, so
	// that workload statistics are non-trivial). Otherwise synthetic names
	// wp<i>/wc<i> are used.
	PropVocab  []string
	ConstVocab []string
	Seed       int64
}

func (s Spec) withDefaults() Spec {
	if len(s.PropVocab) > 0 {
		s.Properties = len(s.PropVocab)
	}
	if len(s.ConstVocab) > 0 {
		s.Constants = len(s.ConstVocab)
	}
	if s.Properties <= 0 {
		s.Properties = 8 + s.AtomsPerQuery
	}
	if s.Constants <= 0 {
		s.Constants = 12 + 2*s.AtomsPerQuery
	}
	if s.AtomsPerQuery <= 0 {
		s.AtomsPerQuery = 5
	}
	if s.Queries <= 0 {
		s.Queries = 1
	}
	return s
}

// Generator produces workloads against a dictionary.
type Generator struct {
	dict *dict.Dictionary
	rng  *rand.Rand

	propVocab  []string
	constVocab []string
	nextVar    int
}

// NewGenerator returns a generator encoding constants into d.
func NewGenerator(d *dict.Dictionary, seed int64) *Generator {
	return &Generator{dict: d, rng: rand.New(rand.NewSource(seed))}
}

func (g *Generator) freshVar() cq.Term {
	g.nextVar++
	return cq.Var(g.nextVar)
}

func (g *Generator) prop(i int) cq.Term {
	if len(g.propVocab) > 0 {
		return cq.Const(g.dict.EncodeIRI(g.propVocab[i%len(g.propVocab)]))
	}
	return cq.Const(g.dict.EncodeIRI(fmt.Sprintf("wp%d", i)))
}

func (g *Generator) konst(i int) cq.Term {
	if len(g.constVocab) > 0 {
		return cq.Const(g.dict.EncodeIRI(g.constVocab[i%len(g.constVocab)]))
	}
	return cq.Const(g.dict.EncodeIRI(fmt.Sprintf("wc%d", i)))
}

// Generate produces the workload described by the spec. All queries are
// connected, contain at least one constant (so the stopvar condition applies
// meaningfully), and use disjoint variables.
func Generate(d *dict.Dictionary, spec Spec) []*cq.Query {
	spec = spec.withDefaults()
	g := NewGenerator(d, spec.Seed)
	g.propVocab, g.constVocab = spec.PropVocab, spec.ConstVocab
	out := make([]*cq.Query, 0, spec.Queries)

	// High commonality: a pool of ~Queries/3 seed skeletons; each query is a
	// perturbation of a seed (constants mostly shared, occasional swap).
	var seeds []*skeleton
	if spec.Commonality == High {
		n := spec.Queries/3 + 1
		for i := 0; i < n; i++ {
			seeds = append(seeds, g.skeletonFor(spec, i))
		}
	}
	for qi := 0; qi < spec.Queries; qi++ {
		var sk *skeleton
		if spec.Commonality == High {
			sk = seeds[g.rng.Intn(len(seeds))]
		} else {
			sk = g.skeletonFor(spec, qi)
		}
		out = append(out, g.instantiate(sk, spec))
	}
	return out
}

// skeleton is a query shape: per-atom property index and object spec.
type skeleton struct {
	shape Shape
	atoms int
	props []int
	objs  []int // >= 0: constant index; -1: fresh variable object
}

func (g *Generator) skeletonFor(spec Spec, idx int) *skeleton {
	shape := spec.Shape
	if shape == Mixed {
		shape = []Shape{Star, Chain, Cycle, RandomSparse, RandomDense}[idx%5]
	}
	sk := &skeleton{shape: shape, atoms: spec.AtomsPerQuery}
	for i := 0; i < sk.atoms; i++ {
		sk.props = append(sk.props, g.rng.Intn(spec.Properties))
		if g.rng.Intn(3) == 0 { // ~1/3 of object positions carry constants
			sk.objs = append(sk.objs, g.rng.Intn(spec.Constants))
		} else {
			sk.objs = append(sk.objs, -1)
		}
	}
	// Guarantee at least one constant.
	if allVars(sk.objs) {
		sk.objs[g.rng.Intn(len(sk.objs))] = g.rng.Intn(spec.Constants)
	}
	return sk
}

func allVars(objs []int) bool {
	for _, o := range objs {
		if o >= 0 {
			return false
		}
	}
	return true
}

// instantiate builds a concrete query from a skeleton with fresh variables.
func (g *Generator) instantiate(sk *skeleton, spec Spec) *cq.Query {
	n := sk.atoms
	atoms := make([]cq.Atom, 0, n)
	var vars []cq.Term

	obj := func(i int) cq.Term {
		if sk.objs[i] >= 0 {
			return g.konst(sk.objs[i])
		}
		v := g.freshVar()
		vars = append(vars, v)
		return v
	}

	switch sk.shape {
	case Star:
		center := g.freshVar()
		vars = append(vars, center)
		for i := 0; i < n; i++ {
			atoms = append(atoms, cq.Atom{center, g.prop(sk.props[i]), obj(i)})
		}
	case Chain, Cycle:
		cur := g.freshVar()
		vars = append(vars, cur)
		first := cur
		for i := 0; i < n; i++ {
			var next cq.Term
			switch {
			case sk.shape == Cycle && i == n-1:
				next = first
			case sk.objs[i] >= 0 && i < n-1:
				// A constant object would break the chain; attach it as the
				// property-selected object and continue from a fresh subject
				// joined on cur. Keep the chain through a variable instead.
				next = g.freshVar()
				vars = append(vars, next)
			default:
				next = obj(i)
				if next.IsConst() {
					next = g.freshVar()
					vars = append(vars, next)
				}
			}
			atoms = append(atoms, cq.Atom{cur, g.prop(sk.props[i]), next})
			cur = next
		}
		// Sprinkle the skeleton's constants as extra selection atoms replaced
		// into property positions: chains carry constants in p, matching the
		// paper's query generator.
	case RandomSparse, RandomDense:
		v0 := g.freshVar()
		vars = append(vars, v0)
		for i := 0; i < n; i++ {
			s := vars[g.rng.Intn(len(vars))]
			o := obj(i)
			atoms = append(atoms, cq.Atom{s, g.prop(sk.props[i]), o})
			if sk.shape == RandomDense && o.IsVar() && len(vars) > 2 && i < n-1 {
				// Dense: immediately reuse o with another existing var.
				s2 := vars[g.rng.Intn(len(vars))]
				if s2 != o {
					atoms = append(atoms, cq.Atom{s2, g.prop(sk.props[(i+1)%n]), o})
					i++
				}
			}
		}
		atoms = atoms[:min(len(atoms), n)]
	}
	// Head: the first variable plus ~half of the others.
	head := []cq.Term{vars[0]}
	for _, v := range vars[1:] {
		if g.rng.Intn(2) == 0 {
			head = append(head, v)
		}
	}
	q := &cq.Query{Head: head, Atoms: atoms}
	if err := q.Validate(); err != nil || !q.IsConnected() {
		// Regenerate with a fresh skeleton on the rare invalid draw.
		return g.instantiate(g.skeletonFor(Spec{
			AtomsPerQuery: sk.atoms, Properties: max(spec.Properties, 1),
			Constants: max(spec.Constants, 1), Shape: sk.shape,
		}.withDefaults(), g.rng.Int()), spec)
	}
	return q
}

// GenerateSatisfiable produces spec.Queries queries with non-empty answers
// on the store: each query is abstracted from a connected set of concrete
// triples sampled from the data (the paper's second generator, used to
// obtain "interesting workloads on the Barton dataset").
func GenerateSatisfiable(st *store.Store, spec Spec) ([]*cq.Query, error) {
	spec = spec.withDefaults()
	if st.Len() == 0 {
		return nil, fmt.Errorf("workload: empty store")
	}
	g := NewGenerator(st.Dict(), spec.Seed)
	triples := st.Triples()
	snap := st.Snapshot()
	out := make([]*cq.Query, 0, spec.Queries)

	// High commonality: reuse seed triples across queries.
	var seedPool []store.Triple
	if spec.Commonality == High {
		for i := 0; i < spec.Queries/3+1; i++ {
			seedPool = append(seedPool, triples[g.rng.Intn(len(triples))])
		}
	}
	for qi := 0; qi < spec.Queries; qi++ {
		var seed store.Triple
		if spec.Commonality == High {
			seed = seedPool[g.rng.Intn(len(seedPool))]
		} else {
			seed = triples[g.rng.Intn(len(triples))]
		}
		q, err := g.satisfiableQuery(snap, seed, spec.AtomsPerQuery)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// satisfiableQuery grows a connected triple set from the seed by random
// walks, then abstracts subjects/objects into variables.
func (g *Generator) satisfiableQuery(st *store.Snapshot, seed store.Triple, atoms int) (*cq.Query, error) {
	chosen := []store.Triple{seed}
	nodes := []dict.ID{seed[store.S], seed[store.O]}
	for len(chosen) < atoms {
		// Expand from a random known node.
		n := nodes[g.rng.Intn(len(nodes))]
		var cands []store.Triple
		st.Scan(store.Pattern{n, store.Wildcard, store.Wildcard}, func(t store.Triple) bool {
			cands = append(cands, t)
			return len(cands) < 32
		})
		st.Scan(store.Pattern{store.Wildcard, store.Wildcard, n}, func(t store.Triple) bool {
			cands = append(cands, t)
			return len(cands) < 64
		})
		if len(cands) == 0 {
			break
		}
		t := cands[g.rng.Intn(len(cands))]
		dup := false
		for _, c := range chosen {
			if c == t {
				dup = true
				break
			}
		}
		if dup {
			// Try a few times before accepting a shorter query.
			if g.rng.Intn(4) == 0 {
				break
			}
			continue
		}
		chosen = append(chosen, t)
		nodes = append(nodes, t[store.S], t[store.O])
	}
	// Abstract: each distinct subject/object ID becomes a variable with
	// probability; properties stay constant (the typical RDF query profile),
	// and so do rdf:type objects — a variable in class position reformulates
	// into one union term per schema class (rule 5), which blows up the
	// workload far beyond the ~20× growth the paper's Table 3 reports.
	typeID, _ := g.dict.LookupIRI(rdfTypeIRI)
	varOf := make(map[dict.ID]cq.Term)
	var varOrder []cq.Term
	term := func(id dict.ID, forceVar, forceConst bool) cq.Term {
		if v, ok := varOf[id]; ok {
			return v
		}
		if forceConst {
			return cq.Const(id)
		}
		if forceVar || g.rng.Intn(3) > 0 { // 2/3 of nodes become variables
			v := g.freshVar()
			varOf[id] = v
			varOrder = append(varOrder, v)
			return v
		}
		return cq.Const(id)
	}
	var qAtoms []cq.Atom
	for i, t := range chosen {
		s := term(t[store.S], i == 0, false)
		o := term(t[store.O], false, t[store.P] == typeID)
		qAtoms = append(qAtoms, cq.Atom{s, cq.Const(t[store.P]), o})
	}
	var head []cq.Term
	for _, v := range varOrder {
		if len(head) == 0 || g.rng.Intn(2) == 0 {
			head = append(head, v)
		}
	}
	q := (&cq.Query{Head: head, Atoms: qAtoms}).Minimize()
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid query: %w", err)
	}
	if !q.IsConnected() {
		q = q.SplitIndependent()[0]
	}
	return q, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
