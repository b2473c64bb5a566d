package workload

import (
	"testing"

	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/store"
)

func TestGenerateShapesAndSizes(t *testing.T) {
	d := dict.New()
	for _, shape := range []Shape{Star, Chain, Cycle, RandomSparse, RandomDense, Mixed} {
		qs := Generate(d, Spec{Queries: 6, AtomsPerQuery: 5, Shape: shape, Seed: 3})
		if len(qs) != 6 {
			t.Fatalf("%v: got %d queries", shape, len(qs))
		}
		for i, q := range qs {
			if err := q.Validate(); err != nil {
				t.Fatalf("%v query %d invalid: %v", shape, i, err)
			}
			if !q.IsConnected() {
				t.Errorf("%v query %d has a cartesian product", shape, i)
			}
			if q.ConstCount() == 0 {
				t.Errorf("%v query %d has no constants", shape, i)
			}
			if len(q.Atoms) == 0 || len(q.Atoms) > 7 {
				t.Errorf("%v query %d has %d atoms", shape, i, len(q.Atoms))
			}
		}
	}
}

func TestGenerateStarIsStar(t *testing.T) {
	d := dict.New()
	qs := Generate(d, Spec{Queries: 4, AtomsPerQuery: 6, Shape: Star, Seed: 9})
	for _, q := range qs {
		center := q.Atoms[0][0]
		for _, a := range q.Atoms {
			if a[0] != center {
				t.Fatalf("star query subject differs: %v", q)
			}
		}
	}
}

func TestGenerateChainIsChain(t *testing.T) {
	d := dict.New()
	qs := Generate(d, Spec{Queries: 4, AtomsPerQuery: 5, Shape: Chain, Seed: 10})
	for _, q := range qs {
		for i := 1; i < len(q.Atoms); i++ {
			if q.Atoms[i][0] != q.Atoms[i-1][2] {
				t.Fatalf("chain broken at atom %d: %v", i, q)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d1, d2 := dict.New(), dict.New()
	a := Generate(d1, Spec{Queries: 5, AtomsPerQuery: 4, Shape: Mixed, Seed: 77})
	b := Generate(d2, Spec{Queries: 5, AtomsPerQuery: 4, Shape: Mixed, Seed: 77})
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("same seed produced different query %d:\n%v\n%v", i, a[i], b[i])
		}
	}
}

func TestGenerateVariablesDisjointAcrossQueries(t *testing.T) {
	d := dict.New()
	qs := Generate(d, Spec{Queries: 8, AtomsPerQuery: 4, Shape: Star, Seed: 5})
	seen := map[cq.Term]int{}
	for qi, q := range qs {
		for _, v := range q.Vars() {
			if prev, ok := seen[v]; ok && prev != qi {
				t.Fatalf("variable %v shared between queries %d and %d", v, prev, qi)
			}
			seen[v] = qi
		}
	}
}

func TestHighCommonalitySharesStructure(t *testing.T) {
	d := dict.New()
	high := Generate(d, Spec{Queries: 12, AtomsPerQuery: 4, Shape: Star, Commonality: High, Seed: 4})
	// With 12 queries over ~5 seeds, some pair must be isomorphic.
	found := false
	for i := 0; i < len(high) && !found; i++ {
		for j := i + 1; j < len(high); j++ {
			if cq.BodyIsomorphism(high[i], high[j]) != nil {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("high-commonality workload has no isomorphic query pair")
	}
}

func TestGenerateSatisfiable(t *testing.T) {
	st, _ := datagen.Generate(datagen.Config{Triples: 2000, Seed: 1})
	qs, err := GenerateSatisfiable(st, Spec{Queries: 6, AtomsPerQuery: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 6 {
		t.Fatalf("got %d queries", len(qs))
	}
	for i, q := range qs {
		if err := q.Validate(); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		r, err := engine.Materialize(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() == 0 {
			t.Errorf("query %d is not satisfiable: %v", i, q.Format(st.Dict()))
		}
	}
}

func TestGenerateSatisfiableEmptyStore(t *testing.T) {
	if _, err := GenerateSatisfiable(store.New(), Spec{Queries: 1}); err == nil {
		t.Error("empty store should fail")
	}
}

func TestShapeAndCommonalityStrings(t *testing.T) {
	for _, s := range []Shape{Star, Chain, Cycle, RandomSparse, RandomDense, Mixed} {
		if s.String() == "" {
			t.Error("empty shape name")
		}
	}
	if Low.String() != "low" || High.String() != "high" {
		t.Error("commonality names")
	}
}
