// Package cost implements the cost estimation function cε of Section 3.3:
//
//	cε(S) = cs·VSO(S) + cr·REC(S) + cm·VMC(S)
//
// with view space occupancy (VSO) estimated from per-atom exact counts under
// the uniformity and independence assumptions using the standard relational
// formulas [18], rewriting evaluation cost (REC) as c1·io + c2·cpu, and view
// maintenance cost (VMC) as Σ_v f^len(v).
package cost

import (
	"math"
	"slices"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
)

// Stats supplies the statistics of Section 3.3: exact counts of the triples
// matching an atom's constant pattern, per-column distinct counts and average
// value widths, and the total triple count. Implementations may answer from
// the plain store, from a saturated store, or from reformulated counts
// (post-reformulation, Section 4.3).
type Stats interface {
	// AtomCount returns the exact number of triples matching the atom when
	// variables are treated as wildcards (repeated-variable equalities are
	// handled by the estimator, not the provider).
	AtomCount(a cq.Atom) float64
	// TotalTriples returns |t|, the triple table size.
	TotalTriples() float64
	// DistinctCount returns the number of distinct values in column col
	// (0=s, 1=p, 2=o).
	DistinctCount(col int) float64
	// AvgWidth returns the average width in bytes of values in column col.
	AvgWidth(col int) float64
}

// Weights are the numerical weights of the cost function. The zero value is
// not useful; start from DefaultWeights.
type Weights struct {
	CS float64 // cs: view space occupancy weight
	CR float64 // cr: rewriting evaluation weight
	CM float64 // cm: view maintenance weight
	C1 float64 // c1: io weight inside REC
	C2 float64 // c2: cpu weight inside REC
	F  float64 // f: per-join maintenance fan-out in VMC = Σ f^len(v)
}

// DefaultWeights returns the weights used throughout the paper's experiments:
// cs = cr = 1, cm = 0.5 ("in most cases this lead to cm=0.5"), f = 2.
func DefaultWeights() Weights {
	return Weights{CS: 1, CR: 1, CM: 0.5, C1: 1, C2: 1, F: 2}
}

// Breakdown reports the components of a state's cost.
type Breakdown struct {
	VSO   float64
	REC   float64
	VMC   float64
	Total float64
}

// ViewTerms are the terms one view contributes to the cost function; they
// depend on the view's definition and the statistics only.
type ViewTerms struct {
	Card  float64 // |v|ε, the estimated cardinality
	Width float64 // estimated bytes per stored tuple
	Space float64 // Card × Width: the view's share of VSO
	Maint float64 // f^len(v): the view's share of VMC
}

// Estimator evaluates the cost function against a statistics provider.
//
// Per-view terms are memoized by *cq.Query identity, with the canonical code
// as the miss path: the search re-encounters the same view definition under
// many pointers (one per transition that builds it) and the same pointer in
// many states. Queries handed to an estimator must therefore not be edited
// afterwards (transitions Clone before editing), and Stats and W.F must stay
// fixed once the first view is costed; the other weights scale sums of terms
// and may be recalibrated at any time (see CalibrateCM).
//
// Filling the memo is not synchronized: concurrent searches each take their
// own estimator over the shared Stats (concurrent Recommend calls do). Reads of
// memoized views are safe from any number of goroutines.
type Estimator struct {
	Stats Stats
	W     Weights

	byQuery map[*cq.Query]ViewTerms
	byCode  map[string]ViewTerms
}

// NewEstimator returns an estimator with the given statistics and weights.
func NewEstimator(stats Stats, w Weights) *Estimator {
	return &Estimator{
		Stats:   stats,
		W:       w,
		byQuery: make(map[*cq.Query]ViewTerms),
		byCode:  make(map[string]ViewTerms),
	}
}

// Memoized returns the number of view definitions (pointers) the estimator
// holds terms for — what it keeps alive.
func (e *Estimator) Memoized() int { return len(e.byQuery) }

// ViewTerms returns the cost terms of a view.
func (e *Estimator) ViewTerms(v *cq.Query) ViewTerms {
	if t, ok := e.byQuery[v]; ok {
		return t
	}
	return e.ViewTermsCoded(v, v.CanonicalCode())
}

// ViewTermsCoded is ViewTerms for callers that already hold v's canonical
// code (the search computes it once per view, in core.Ctx.NewView).
func (e *Estimator) ViewTermsCoded(v *cq.Query, code string) ViewTerms {
	if t, ok := e.byQuery[v]; ok {
		return t
	}
	t, ok := e.byCode[code]
	if !ok {
		card := e.viewCardinality(v)
		width := e.viewRowWidth(v)
		t = ViewTerms{Card: card, Width: width, Space: card * width, Maint: math.Pow(e.W.F, float64(v.Len()))}
		e.byCode[code] = t
	}
	e.byQuery[v] = t
	return t
}

// atomPatternCount applies the provider count plus the selectivity of
// repeated variables inside the atom (e.g. t(X, p, X)).
func (e *Estimator) atomPatternCount(a cq.Atom) float64 {
	n := e.Stats.AtomCount(a)
	for i := 0; i < 3; i++ {
		if !a[i].IsVar() {
			continue
		}
		for j := i + 1; j < 3; j++ {
			if a[j] == a[i] {
				v := math.Max(e.colDistinct(i, n), e.colDistinct(j, n))
				if v > 0 {
					n /= v
				}
			}
		}
	}
	return n
}

// colDistinct caps the column's distinct count by the relation size.
func (e *Estimator) colDistinct(col int, size float64) float64 {
	d := e.Stats.DistinctCount(col)
	if size < d {
		return math.Max(size, 1)
	}
	return math.Max(d, 1)
}

// ViewCardinality estimates |v|ε for a conjunctive view: the product of the
// exact per-atom counts, reduced by one equi-join selectivity factor
// 1/max(V(l), V(r)) per join edge in a spanning chain of each variable's
// occurrences — the textbook formula of [18] under independence/uniformity.
func (e *Estimator) ViewCardinality(v *cq.Query) float64 { return e.ViewTerms(v).Card }

func (e *Estimator) viewCardinality(v *cq.Query) float64 {
	card := 1.0
	atomCard := make([]float64, len(v.Atoms))
	for i, a := range v.Atoms {
		atomCard[i] = e.atomPatternCount(a)
		card *= atomCard[i]
	}
	// One factor per link of each variable's chain of occurrences (its first
	// column in every atom that mentions it), taken in atom order so that the
	// estimate is the same float on every call.
	for i, a := range v.Atoms {
		for c := 0; c < 3; c++ {
			x := a[c]
			if !x.IsVar() || firstColumn(a, x) != c {
				continue
			}
			for j := i - 1; j >= 0; j-- {
				if pc := firstColumn(v.Atoms[j], x); pc >= 0 {
					vl := e.colDistinct(pc, atomCard[j])
					vr := e.colDistinct(c, atomCard[i])
					card /= math.Max(vl, vr)
					break
				}
			}
		}
	}
	if card < 0 {
		card = 0
	}
	return card
}

// firstColumn returns the first position of t in the atom, or -1.
func firstColumn(a cq.Atom, t cq.Term) int {
	for c := 0; c < 3; c++ {
		if a[c] == t {
			return c
		}
	}
	return -1
}

// ViewRowWidth estimates the stored width in bytes of one view tuple: the sum
// over head terms of the average width of the triple-table column the term
// first occurs in (Section 3.3's "average size of a subject, property,
// respectively object").
func (e *Estimator) ViewRowWidth(v *cq.Query) float64 { return e.ViewTerms(v).Width }

func (e *Estimator) viewRowWidth(v *cq.Query) float64 {
	width := 0.0
	for _, h := range v.Head {
		width += e.Stats.AvgWidth(firstBodyColumn(v, h))
	}
	return width
}

// firstBodyColumn returns the triple-table column (0/1/2) of the first body
// occurrence of term h, defaulting to the object column.
func firstBodyColumn(v *cq.Query, h cq.Term) int {
	for _, a := range v.Atoms {
		if c := firstColumn(a, h); c >= 0 {
			return c
		}
	}
	return 2
}

// ViewSpace estimates the space occupancy of one view: |v|ε × row width.
func (e *Estimator) ViewSpace(v *cq.Query) float64 { return e.ViewTerms(v).Space }

// Sums holds a state's cost as three running sums of terms: view space
// (VSO), view maintenance (VMC) and rewriting evaluation (REC). A successor
// state's sums are its predecessor's minus the terms of what a transition
// removed plus the terms of what it added. Each sum carries its rounding
// error exactly (a double-double accumulator), so a state's cost does not
// depend on the path that reached it even when a removed term dwarfs what
// remains, and agrees with the from-scratch fold of CostState.
type Sums struct {
	space, maint, rec acc
}

// AddView adds a view's terms.
func (s *Sums) AddView(t ViewTerms) { s.space.add(t.Space); s.maint.add(t.Maint) }

// RemoveView takes a view's terms back out.
func (s *Sums) RemoveView(t ViewTerms) { s.space.add(-t.Space); s.maint.add(-t.Maint) }

// AddPlan adds a rewriting's evaluation cost (Estimator.PlanREC).
func (s *Sums) AddPlan(rec float64) { s.rec.add(rec) }

// RemovePlan takes a rewriting's evaluation cost back out.
func (s *Sums) RemovePlan(rec float64) { s.rec.add(-rec) }

// acc is a sum kept as an unevaluated hi+lo pair: lo collects the rounding
// error of every addition to hi (Knuth's TwoSum), which is exact.
type acc struct{ hi, lo float64 }

func (a *acc) add(x float64) {
	s := a.hi + x
	b := s - a.hi
	a.lo += (a.hi - (s - b)) + (x - b)
	a.hi = s
}

func (a acc) value() float64 { return a.hi + a.lo }

// PlanREC is the rewriting evaluation cost of one costed plan,
// c1·io(r) + c2·cpu(r).
func (e *Estimator) PlanREC(pc PlanCosting) float64 { return e.W.C1*pc.IO + e.W.C2*pc.CPU }

// Breakdown weighs the sums into the cost function.
func (e *Estimator) Breakdown(s Sums) Breakdown {
	b := Breakdown{VSO: s.space.value(), REC: s.rec.value(), VMC: s.maint.value()}
	b.Total = e.W.CS*b.VSO + e.W.CR*b.REC + e.W.CM*b.VMC
	return b
}

// sumState folds the terms of every view (in view-ID order) and every
// rewriting (in workload order) from nothing.
func (e *Estimator) sumState(views map[algebra.ViewID]*cq.Query, plans []algebra.Plan) Sums {
	ids := make([]algebra.ViewID, 0, len(views))
	for id := range views {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var s Sums
	for _, id := range ids {
		s.AddView(e.ViewTerms(views[id]))
	}
	for _, p := range plans {
		s.AddPlan(e.PlanREC(e.PlanCost(p, views)))
	}
	return s
}

// CostState evaluates the full cost function over a state's views and
// rewriting plans: the from-scratch definition the search's per-transition
// deltas (core.State.Cost) are tested against.
func (e *Estimator) CostState(views map[algebra.ViewID]*cq.Query, plans []algebra.Plan) Breakdown {
	return e.Breakdown(e.sumState(views, plans))
}

// CalibrateCM returns a maintenance weight cm such that cm·VMC(S0) lands two
// orders of magnitude below the other components of the initial state's cost,
// following the experimental setup of Section 6 ("we set the value of cm
// taking into account the database size and the average number of atoms per
// query, so that for the initial state S0, cm·VMC is within at most two
// orders of magnitude from the other two cost components").
func (e *Estimator) CalibrateCM(views map[algebra.ViewID]*cq.Query, plans []algebra.Plan) float64 {
	b := e.CostState(views, plans)
	if b.VMC <= 0 {
		return e.W.CM
	}
	other := e.W.CS*b.VSO + e.W.CR*b.REC
	cm := other / (100 * b.VMC)
	if cm <= 0 || math.IsNaN(cm) || math.IsInf(cm, 0) {
		return e.W.CM
	}
	return cm
}
