// Package stats implements the statistics providers of Sections 3.3 and 4.3:
//
//   - StoreStats answers exact pattern counts from the (possibly saturated)
//     triple store — the "database saturation" scenario;
//   - ReformulatedStats answers the counts a saturated database would give,
//     computed on the non-saturated store by reformulating each view atom
//     (the post-reformulation scenario: "replacing |vi| in our cost formulas
//     with |Reformulate(vi, S)| ... results in having the same statistics as
//     if the database was saturated").
//
// Each pins a store snapshot when it is made and answers every count from it,
// so a provider describes the store as it was when the provider was made,
// however the store moves while it is read. A StoreStats is an index lookup
// per count and is made per search; a ReformulatedStats evaluates a union per
// count and is kept for as long as its store and schema stay put — Database
// pins one to the database version (rdfviews.go) — and is replaced by a new
// provider, not emptied, when they move. Either may be read from any number
// of goroutines.
package stats

import (
	"sync"

	"rdfviews/internal/cq"
	"rdfviews/internal/engine"
	"rdfviews/internal/reason"
	"rdfviews/internal/store"
)

// StoreStats serves statistics straight from a snapshot of a store, made for
// one search (Database.Recommend makes one per call) and dropped with it.
type StoreStats struct {
	st   *store.Store
	snap *store.Snapshot

	mu    sync.Mutex
	cache map[store.Pattern]float64
}

// NewStoreStats returns a provider over the store as it is now: it pins a
// snapshot and computes its column statistics.
func NewStoreStats(st *store.Store) *StoreStats {
	return &StoreStats{st: st, snap: pin(st), cache: make(map[store.Pattern]float64)}
}

// pin snapshots the store and computes the snapshot's column statistics (one
// DistinctCount computes all three columns), so that a search's first
// DistinctCount or AvgWidth does not pay for them.
func pin(st *store.Store) *store.Snapshot {
	snap := st.Snapshot()
	snap.DistinctCount(store.S)
	return snap
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
	c := float64(s.snap.Count(pat))
	s.cache[pat] = c
	return c
}

// TotalTriples implements cost.Stats.
func (s *StoreStats) TotalTriples() float64 { return float64(s.snap.Len()) }

// DistinctCount implements cost.Stats.
func (s *StoreStats) DistinctCount(col int) float64 {
	return float64(s.snap.DistinctCount(col))
}

// AvgWidth implements cost.Stats.
func (s *StoreStats) AvgWidth(col int) float64 { return s.snap.AvgWidth(col) }

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
// |sat(D)| and the distinct counts of its three columns.
type Globals struct {
	Total    float64
	Distinct [3]float64
}

// maxCells bounds the per-pattern counts one ReformulatedStats keeps, at about
// 100 bytes each. A search asks for tens of patterns (32 on the benchmark's
// select-reform); a provider shared by a database version's searches
// overflows only under workloads that keep bringing new constants, and then
// loses time, not exactness.
const maxCells = 1 << 16

// cell is one once-evaluated count. Whoever finds the cell unevaluated
// evaluates it while later askers of that cell wait; askers of other cells do
// not.
type cell struct {
	once sync.Once
	n    float64
}

// ReformulatedStats serves the statistics of the post-reformulation scenario
// (Section 4.3): per-atom counts are the sizes of the atom's reformulation
// evaluated on the original store, and the global statistics (total size,
// distinct counts) are computed the same way from fully relaxed atoms. The
// provider is equivalent to StoreStats over the saturated store without ever
// materializing the saturation (property-tested in stats_test.go).
//
// Every count is a function of (store snapshot, schema) and is evaluated at
// most once per provider, on first request, however many goroutines ask. A
// provider is therefore good for as long as neither the store nor the
// schema moves, and its owner replaces it — never resets it — when one does:
// searches and recommendations still holding the old provider keep
// statistics consistent with each other. Database.Recommend shares one
// provider per database version.
type ReformulatedStats struct {
	st     *store.Store
	snap   *store.Snapshot
	schema *reason.Schema

	// mu guards the cells map only, never an evaluation. limit is maxCells;
	// tests lower it.
	mu       sync.Mutex
	cells    map[store.Pattern]*cell
	limit    int
	distinct [3]cell
}

// NewReformulatedStats returns a provider over the non-saturated store as it
// is now: it pins a snapshot and computes its column statistics. No count is
// evaluated until it is asked for.
func NewReformulatedStats(st *store.Store, schema *reason.Schema) *ReformulatedStats {
	return &ReformulatedStats{st: st, snap: pin(st), schema: schema, cells: make(map[store.Pattern]*cell), limit: maxCells}
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

// count is |Reformulate(q, S)| evaluated with set semantics on the pinned
// snapshot of the original store. When the reformulation trips its size
// limit the plain count stands in; that only happens on adversarial schemas,
// and an under-estimate is preferable to failing the search.
func (s *ReformulatedStats) count(q *cq.Query, plain func() int) float64 {
	u, err := reason.Reformulate(q, s.schema, 0)
	if err == nil {
		var n int
		if n, err = engine.CountUCQ(s.snap, u); err == nil {
			return float64(n)
		}
	}
	return float64(plain())
}

// AtomCount implements cost.Stats: the pattern's cell, evaluated by the first
// caller to ask for it. When the map is full a fresh one takes its place;
// cells already handed out stay valid for their holders.
func (s *ReformulatedStats) AtomCount(a cq.Atom) float64 {
	pat := PatternOf(a)
	s.mu.Lock()
	c := s.cells[pat]
	if c == nil {
		if len(s.cells) >= s.limit {
			s.cells = make(map[store.Pattern]*cell)
		}
		c = new(cell)
		s.cells[pat] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		c.n = s.count(atomQuery(pat), func() int { return s.snap.Count(pat) })
	})
	return c.n
}

// TotalTriples implements cost.Stats: the saturated database size, which is
// the fully relaxed atom's count.
func (s *ReformulatedStats) TotalTriples() float64 { return s.AtomCount(relaxed) }

// DistinctCount implements cost.Stats over the saturated extension: the
// fully relaxed atom projected on the column, exactly as Section 3.3 relaxes
// query atoms.
func (s *ReformulatedStats) DistinctCount(col int) float64 {
	c := &s.distinct[col]
	c.once.Do(func() {
		q := &cq.Query{Head: []cq.Term{relaxed[col]}, Atoms: []cq.Atom{relaxed}}
		c.n = s.count(q, func() int { return s.snap.DistinctCount(col) })
	})
	return c.n
}

// Globals returns the saturated-equivalent global statistics.
func (s *ReformulatedStats) Globals() Globals {
	g := Globals{Total: s.TotalTriples()}
	for col := range g.Distinct {
		g.Distinct[col] = s.DistinctCount(col)
	}
	return g
}

// AvgWidth implements cost.Stats; widths are taken from the base store's
// snapshot (saturation adds no new lexical values beyond schema terms).
func (s *ReformulatedStats) AvgWidth(col int) float64 { return s.snap.AvgWidth(col) }
