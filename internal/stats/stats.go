// Package stats implements the statistics providers of Sections 3.3 and 4.3:
//
//   - StoreStats answers exact pattern counts from the (possibly saturated)
//     triple store — the "database saturation" scenario;
//   - ReformulatedStats answers the counts a saturated database would give,
//     computed on the non-saturated store by reformulating each view atom
//     (the post-reformulation scenario: "replacing |vi| in our cost formulas
//     with |Reformulate(vi, S)| ... results in having the same statistics as
//     if the database was saturated").
package stats

import (
	"sync"

	"rdfviews/internal/cq"
	"rdfviews/internal/engine"
	"rdfviews/internal/reason"
	"rdfviews/internal/store"
)

// StoreStats serves statistics straight from a store. It caches pattern
// counts; the store must not be modified while the provider is in use.
type StoreStats struct {
	st *store.Store

	mu    sync.Mutex
	cache map[store.Pattern]float64
}

// NewStoreStats returns a provider over the store. The store's indexes and
// column statistics are built eagerly, so that subsequent reads — possibly
// from several search goroutines — never mutate the store.
func NewStoreStats(st *store.Store) *StoreStats {
	warmStore(st)
	return &StoreStats{st: st, cache: make(map[store.Pattern]float64)}
}

// warmStore forces index construction and column statistics so the store is
// read-only afterwards.
func warmStore(st *store.Store) {
	st.Count(store.Pattern{})
	for col := 0; col < 3; col++ {
		st.DistinctCount(col)
	}
}

// Store exposes the underlying store.
func (s *StoreStats) Store() *store.Store { return s.st }

// AtomCount implements cost.Stats with exact index counts.
func (s *StoreStats) AtomCount(a cq.Atom) float64 {
	pat := PatternOf(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.cache[pat]; ok {
		return c
	}
	c := float64(s.st.Count(pat))
	s.cache[pat] = c
	return c
}

// TotalTriples implements cost.Stats.
func (s *StoreStats) TotalTriples() float64 { return float64(s.st.Len()) }

// DistinctCount implements cost.Stats.
func (s *StoreStats) DistinctCount(col int) float64 {
	return float64(s.st.DistinctCount(col))
}

// AvgWidth implements cost.Stats.
func (s *StoreStats) AvgWidth(col int) float64 { return s.st.AvgWidth(col) }

// PatternOf converts an atom into a store pattern: constants stay, variables
// become wildcards.
func PatternOf(a cq.Atom) store.Pattern {
	var pat store.Pattern
	for i := 0; i < 3; i++ {
		if a[i].IsConst() {
			pat[i] = a[i].ConstID()
		}
	}
	return pat
}

// Globals are the saturated-equivalent global statistics of Section 4.3:
// |sat(D)| and the distinct counts of its three columns. They are a function
// of (data, schema) alone, so an owner that knows when neither moved can
// derive them once (ReformulatedStats.Globals) and hand them to every later
// provider (NewReformulatedStatsFrom).
type Globals struct {
	Total    float64
	Distinct [3]float64
}

// ReformulatedStats serves the statistics of the post-reformulation scenario
// (Section 4.3): per-atom counts are the sizes of the atom's reformulation
// evaluated on the original store, and the global statistics (total size,
// distinct counts) are computed the same way from fully relaxed atoms. The
// provider is equivalent to StoreStats over the saturated store without ever
// materializing the saturation (property-tested in stats_test.go).
type ReformulatedStats struct {
	st     *store.Store
	schema *reason.Schema

	mu       sync.Mutex
	cache    map[store.Pattern]float64
	prepOnce sync.Once
	globals  Globals
}

// NewReformulatedStats returns a provider over the non-saturated store. The
// global statistics are derived on first use.
func NewReformulatedStats(st *store.Store, schema *reason.Schema) *ReformulatedStats {
	warmStore(st)
	return &ReformulatedStats{st: st, schema: schema, cache: make(map[store.Pattern]float64)}
}

// NewReformulatedStatsFrom returns a provider that takes its global
// statistics from g — what Globals returned for the same store contents and
// schema — instead of deriving them. The fully relaxed atom's count is the
// total, so it is known too: the search asks for it whenever a selection cut
// relaxes an atom's last constant.
func NewReformulatedStatsFrom(st *store.Store, schema *reason.Schema, g Globals) *ReformulatedStats {
	s := NewReformulatedStats(st, schema)
	s.prepOnce.Do(func() {
		s.globals = g
		s.cache[store.Pattern{}] = g.Total
	})
	return s
}

// Store exposes the underlying (non-saturated) store.
func (s *ReformulatedStats) Store() *store.Store { return s.st }

// relaxed are the variables of the fully relaxed atom t(X, Y, Z) of Section
// 3.3, numbered away from anything a workload uses.
var relaxed = cq.Atom{cq.Var(1000000001), cq.Var(1000000002), cq.Var(1000000003)}

// atomQuery builds the one-atom query vi of Section 3.3 for the atom's
// constant pattern: every variable position gets a variable of its own
// (cost.Stats: repeated-variable equalities are the estimator's), and the
// head is those variables — none for a fully bound atom, whose boolean query
// counts 0 or 1.
func atomQuery(pat store.Pattern) *cq.Query {
	a := relaxed
	var head []cq.Term
	for i, id := range pat {
		if id != store.Wildcard {
			a[i] = cq.Const(id)
		} else {
			head = append(head, a[i])
		}
	}
	return &cq.Query{Head: head, Atoms: []cq.Atom{a}}
}

// AtomCount implements cost.Stats: |Reformulate(vi, S)| evaluated with set
// semantics on the original store.
func (s *ReformulatedStats) AtomCount(a cq.Atom) float64 {
	pat := PatternOf(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.cache[pat]; ok {
		return c
	}
	u, err := reason.Reformulate(atomQuery(pat), s.schema, 0)
	var n int
	if err == nil {
		n, err = engine.CountUCQ(s.st, u)
	}
	if err != nil {
		// Fall back to the plain count; the limit only trips on adversarial
		// schemas, and an under-estimate is preferable to failing the search.
		n = s.st.Count(pat)
	}
	c := float64(n)
	s.cache[pat] = c
	return c
}

// prepare computes the saturated-equivalent global statistics from fully
// relaxed atoms, exactly as Section 3.3 relaxes query atoms. sync.Once makes
// the computed fields safe to read from concurrent searchers.
func (s *ReformulatedStats) prepare() {
	s.prepOnce.Do(func() {
		s.globals.Total = s.AtomCount(relaxed)
		for col, v := range relaxed {
			q := &cq.Query{Head: []cq.Term{v}, Atoms: []cq.Atom{relaxed}}
			u, err := reason.Reformulate(q, s.schema, 0)
			if err != nil {
				s.globals.Distinct[col] = float64(s.st.DistinctCount(col))
				continue
			}
			n, err := engine.CountUCQ(s.st, u)
			if err != nil {
				n = s.st.DistinctCount(col)
			}
			s.globals.Distinct[col] = float64(n)
		}
	})
}

// Globals returns the saturated-equivalent global statistics, deriving them
// if this provider has not yet.
func (s *ReformulatedStats) Globals() Globals {
	s.prepare()
	return s.globals
}

// TotalTriples implements cost.Stats: the saturated database size.
func (s *ReformulatedStats) TotalTriples() float64 { return s.Globals().Total }

// DistinctCount implements cost.Stats over the saturated extension.
func (s *ReformulatedStats) DistinctCount(col int) float64 { return s.Globals().Distinct[col] }

// AvgWidth implements cost.Stats; widths are taken from the base store
// (saturation adds no new lexical values beyond schema terms).
func (s *ReformulatedStats) AvgWidth(col int) float64 { return s.st.AvgWidth(col) }
