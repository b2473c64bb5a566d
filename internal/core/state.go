// Package core implements the paper's primary contribution: view selection
// for Semantic Web databases as a search problem in a space of states
// (Section 3), with the four transitions View Break, Selection Cut, Join Cut
// and View Fusion (Definitions 3.2–3.5), the exhaustive, stratified,
// depth-first and greedy search strategies with the AVF and stop-condition
// heuristics (Section 5), and the relational competitor strategies of
// Theodoratos et al. [21] used as baselines in Section 6.
package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
)

// View is one candidate materialized view: a conjunctive query with a state-
// unique ID and everything the search derives from its definition once, when
// the view is built: canonical codes, their interned IDs and the
// stop-condition properties. A view is immutable and shared by every state
// that contains it.
type View struct {
	ID algebra.ViewID
	Q  *cq.Query

	code     string // set-mode canonical code incl. head (state equality, Def. §3.1)
	bodyCode string // its body prefix (View Fusion prefilter)
	// codeID and bodyID are code and bodyCode interned by the Ctx that built
	// the view: within one search, equal IDs are equal strings.
	codeID, bodyID uint32
	// allVar: no constants at all (stopvar); tripleTable: a single atom of
	// three distinct variables (stoptt).
	allVar, tripleTable bool
	vbOnce              bool
	vbPairs             [][2]uint32 // cached View Break cover pairs (see enumVB)
}

// NewView builds a view under a fresh ID, computing its canonical codes in
// one labeling run and interning them.
func (c *Ctx) NewView(q *cq.Query) *View {
	v := &View{ID: c.nextViewID, Q: q, allVar: q.ConstCount() == 0}
	c.nextViewID++
	lab := q.Label(cq.SetHead)
	v.code, v.bodyCode = lab.Code, lab.Code[:lab.BodyLen]
	v.codeID, v.bodyID = intern(c.codes, v.code), intern(c.bodies, v.bodyCode)
	if len(q.Atoms) == 1 && v.allVar {
		a := q.Atoms[0]
		v.tripleTable = a[0] != a[1] && a[1] != a[2] && a[0] != a[2]
	}
	return v
}

// intern returns the ID of s in m, adding it under the next free ID.
func intern(m map[string]uint32, s string) uint32 {
	id, ok := m[s]
	if !ok {
		id = uint32(len(m))
		m[s] = id
	}
	return id
}

// Code returns the canonical code of the view (body + head set).
func (v *View) Code() string { return v.code }

// BodyCode returns the canonical code of the body only. Two views are
// fusable (bodies equivalent up to renaming, Definition 3.5) iff their body
// codes are equal, since views are kept minimal.
func (v *View) BodyCode() string { return v.bodyCode }

// vbCandidates lazily computes the valid View Break cover pairs of the body:
// (mask1, mask2) over atoms with mask1 ∪ mask2 = all, both induced subgraphs
// connected, neither mask containing the other, and atom 0 ∈ mask1 (swap
// symmetry). Bodies of more than 20 atoms are skipped (the enumeration is
// Θ(3^n); no paper workload exceeds 10 atoms per query).
func (v *View) vbCandidates() [][2]uint32 {
	if v.vbOnce {
		return v.vbPairs
	}
	v.vbOnce = true
	n := len(v.Q.Atoms)
	if n <= 2 || n > 20 {
		return nil
	}
	adj := atomAdjacency(v.Q)
	full := uint32(1)<<uint(n) - 1
	for m1 := uint32(1); m1 < full; m1 += 2 { // bit 0 always set
		if !maskConnected(adj, m1) {
			continue
		}
		rest := full &^ m1 // non-empty since m1 < full
		// extra ranges over the proper subsets of m1 (the overlap);
		// extra == m1 would make mask2 ⊇ mask1.
		extra := m1
		for {
			extra = (extra - 1) & m1
			m2 := rest | extra
			if maskConnected(adj, m2) {
				v.vbPairs = append(v.vbPairs, [2]uint32{m1, m2})
			}
			if extra == 0 {
				break
			}
		}
	}
	return v.vbPairs
}

// Stage tags how far along the stratified order VB ≤ SC ≤ JC ≤ VF a state's
// construction path has advanced (Definition 5.3: paths in VB* SC* JC* VF*).
type Stage uint8

// The four transition kinds in stratification order.
const (
	StageVB Stage = iota
	StageSC
	StageJC
	StageVF
)

func (st Stage) String() string {
	switch st {
	case StageVB:
		return "VB"
	case StageSC:
		return "SC"
	case StageJC:
		return "JC"
	case StageVF:
		return "VF"
	}
	return fmt.Sprintf("Stage(%d)", uint8(st))
}

// State is a candidate view set ⟨V, R⟩ (Definition 2.3): a multiset of views
// plus exactly one rewriting plan per workload query. States are immutable;
// transitions derive new states sharing unchanged views and plan subtrees,
// and carry over what the predecessor already knows — stop-condition counts
// and cost — adjusted for the one or two views they touch.
type State struct {
	// Views is the view set keyed by ID, on the states this package hands
	// out: the initial state and Result.Best. The successor states a search
	// (or a Ctx.Apply* call) builds leave it nil and are read through
	// SortedViews, View and ViewQueries.
	Views map[algebra.ViewID]*View
	// Plans holds one rewriting per workload query, in workload order.
	Plans []algebra.Plan
	// Stage is the stratification tag of the path that reached this state.
	Stage Stage

	views []*View // in ID order
	// scans[i] lists the views Plans[i] scans, beside Plans. A transition
	// rewrites the legs that scan a view it removes, and shares every other
	// leg and list with its predecessor.
	scans []planScans
	// key is the state's identity within a search: its views' interned code
	// IDs, sorted, four big-endian bytes each. Two states of one search have
	// equal keys exactly when they have equal codes (see Code).
	key                 []byte
	code                string
	codeOnce            bool
	allVar, tripleTable int // views with the stop-condition property

	// Costing, see Cost: the estimator that produced sums and recs (nil until
	// the state is costed), the REC term of every plan beside Plans, the
	// costing of each leg of every union plan (nil for other plans), and —
	// until then — the nearest costed predecessor to take the cost from.
	est      *cost.Estimator
	sums     cost.Sums
	recs     []float64
	legCosts [][]cost.PlanCosting
	from     *State
}

// planScans lists, each in ID order, the distinct views a plan scans and
// those each of its legs scans. A leg is one branch of a union plan; any
// other plan is one leg, and its two lists are one. The plan's list lets a
// transition pass over a plan without looking at its legs.
type planScans struct {
	all  []algebra.ViewID
	legs [][]algebra.ViewID
}

// newState builds a state over views, which must be in ID order, with scans
// listing the views plans scan (see listScans).
func newState(views []*View, plans []algebra.Plan, scans []planScans, stage Stage) *State {
	s := &State{Plans: plans, Stage: stage, views: views, scans: scans}
	ids := make([]uint32, len(views))
	for i, v := range views {
		s.count(v, 1)
		ids[i] = v.codeID
	}
	slices.Sort(ids)
	s.key = rekey(nil, nil, ids)
	return s
}

// legsOf returns the legs of a plan: a union's branches, or the plan itself.
func legsOf(p algebra.Plan) []algebra.Plan {
	if u, ok := p.(*algebra.Union); ok {
		return u.Branches
	}
	return []algebra.Plan{p}
}

// listScans walks every plan and each of its legs for the views they scan,
// the lists a state built from nothing keeps beside its plans.
func listScans(plans []algebra.Plan) []planScans {
	scans := make([]planScans, len(plans))
	for i, p := range plans {
		legs := legsOf(p)
		ps := planScans{legs: make([][]algebra.ViewID, len(legs))}
		for b, leg := range legs {
			ps.legs[b] = algebra.SortedViewIDs(leg)
		}
		if len(legs) == 1 {
			ps.all = ps.legs[0]
		} else {
			ps.all = algebra.SortedViewIDs(p)
		}
		scans[i] = ps
	}
	return scans
}

// rekey returns a new key: key without one occurrence of each ID in drop and
// with the IDs in add. drop and add must be sorted, and drop a sub-multiset
// of key. The runs of key between the edits are copied whole.
func rekey(key []byte, drop, add []uint32) []byte {
	out := make([]byte, 0, len(key)+4*(len(add)-len(drop)))
	at := 0 // bytes of key consumed
	// upTo copies key up to the first ID at or above id.
	upTo := func(id uint32) {
		n := sort.Search((len(key)-at)/4, func(k int) bool {
			return binary.BigEndian.Uint32(key[at+4*k:]) >= id
		})
		out = append(out, key[at:at+4*n]...)
		at += 4 * n
	}
	for len(drop) > 0 || len(add) > 0 {
		if len(add) > 0 && (len(drop) == 0 || add[0] < drop[0]) {
			upTo(add[0])
			out = binary.BigEndian.AppendUint32(out, add[0])
			add = add[1:]
		} else {
			upTo(drop[0])
			at += 4
			drop = drop[1:]
		}
	}
	return append(out, key[at:]...)
}

// count adds (n=1) or removes (n=-1) a view's share of the stop-condition
// counts.
func (s *State) count(v *View, n int) {
	if v.allVar {
		s.allVar += n
	}
	if v.tripleTable {
		s.tripleTable += n
	}
}

// publish fills Views before the state leaves the package.
func (s *State) publish() *State {
	if s.Views == nil {
		s.Views = make(map[algebra.ViewID]*View, len(s.views))
		for _, v := range s.views {
			s.Views[v.ID] = v
		}
	}
	return s
}

// Code returns the canonical code of the state: the sorted multiset of its
// views' canonical codes. Two states are equivalent iff they have the same
// view sets (Section 3.1), so equal codes identify duplicate states. A
// search tells its states apart by their interned keys; the code, built on
// first request, compares states across searches.
func (s *State) Code() string {
	if s.codeOnce {
		return s.code
	}
	codes := make([]string, len(s.views))
	for i, v := range s.views {
		codes[i] = v.code
	}
	sort.Strings(codes)
	s.code = strings.Join(codes, "\n")
	s.codeOnce = true
	return s.code
}

// View returns the view with the given ID, or nil.
func (s *State) View(id algebra.ViewID) *View {
	i := sort.Search(len(s.views), func(i int) bool { return s.views[i].ID >= id })
	if i < len(s.views) && s.views[i].ID == id {
		return s.views[i]
	}
	return nil
}

func (s *State) viewQuery(id algebra.ViewID) *cq.Query {
	if v := s.View(id); v != nil {
		return v.Q
	}
	return nil
}

// ViewQueries exposes the view definitions keyed by ID, the shape the cost
// estimator's from-scratch entry points consume.
func (s *State) ViewQueries() map[algebra.ViewID]*cq.Query {
	out := make(map[algebra.ViewID]*cq.Query, len(s.views))
	for _, v := range s.views {
		out[v.ID] = v.Q
	}
	return out
}

// Cost returns the cost breakdown of the state under the estimator. The
// first estimator to cost a state is remembered with the result; asking with
// another one computes its answer afresh and leaves the state as it was.
//
// A state derived from a costed predecessor is costed as a delta over it:
// the predecessor's sums, minus the terms of the views only it has, plus the
// terms of the views only this state has, with the plans whose pointer
// changed re-costed — of a union, only the legs whose pointer changed. A
// state without one (the initial state, a combination of partial states) is
// the same computation from nothing, which is also what Estimator.CostState
// does.
func (s *State) Cost(e *cost.Estimator) cost.Breakdown {
	if s.est == e {
		return e.Breakdown(s.sums)
	}
	sums, recs, legCosts := s.sum(e)
	if s.est == nil {
		s.est, s.sums, s.recs, s.legCosts, s.from = e, sums, recs, legCosts, nil
	}
	return e.Breakdown(sums)
}

func (s *State) sum(e *cost.Estimator) (cost.Sums, []float64, [][]cost.PlanCosting) {
	base := s.from
	if base != nil && (base.est != e || len(base.Plans) != len(s.Plans)) {
		base = nil
	}
	var sums cost.Sums
	var old []*View
	if base != nil {
		sums, old = base.sums, base.views
	}
	// Both view lists are in ID order, and a view keeps its ID for life.
	for i, j := 0, 0; i < len(old) || j < len(s.views); {
		switch {
		case j == len(s.views) || (i < len(old) && old[i].ID < s.views[j].ID):
			sums.RemoveView(e.ViewTermsCoded(old[i].Q, old[i].code))
			i++
		case i == len(old) || old[i].ID > s.views[j].ID:
			sums.AddView(e.ViewTermsCoded(s.views[j].Q, s.views[j].code))
			j++
		default:
			i, j = i+1, j+1
		}
	}
	recs := make([]float64, len(s.Plans))
	legCosts := make([][]cost.PlanCosting, len(s.Plans))
	view := s.viewQuery
	for k, p := range s.Plans {
		var was *algebra.Union // the predecessor's plan, if a union
		var wasLegs []cost.PlanCosting
		if base != nil {
			if p == base.Plans[k] {
				recs[k], legCosts[k] = base.recs[k], base.legCosts[k]
				continue
			}
			sums.RemovePlan(base.recs[k])
			was, _ = base.Plans[k].(*algebra.Union)
			wasLegs = base.legCosts[k]
		}
		var pc cost.PlanCosting
		if u, ok := p.(*algebra.Union); ok {
			// A leg the transition left alone is the same pointer, scanning
			// views it did not remove: its costing still holds.
			legs := make([]cost.PlanCosting, len(u.Branches))
			pc = cost.UnionCost(len(legs), func(b int) cost.PlanCosting {
				if leg := u.Branches[b]; was != nil && leg == was.Branches[b] {
					legs[b] = wasLegs[b]
				} else {
					legs[b] = e.PlanCostBy(leg, view)
				}
				return legs[b]
			})
			legCosts[k] = legs
		} else {
			pc = e.PlanCostBy(p, view)
		}
		recs[k] = e.PlanREC(pc)
		sums.AddPlan(recs[k])
	}
	return sums, recs, legCosts
}

// NumViews returns the number of views.
func (s *State) NumViews() int { return len(s.views) }

// AvgAtomsPerView returns the average number of atoms per view, the measure
// reported at the end of Section 6.4 (DFS ≈ 3.2, GSTR ≈ 6.5).
func (s *State) AvgAtomsPerView() float64 {
	if len(s.views) == 0 {
		return 0
	}
	total := 0
	for _, v := range s.views {
		total += v.Q.Len()
	}
	return float64(total) / float64(len(s.views))
}

// SortedViews returns the views in ID order, the order every enumeration
// uses. The slice is the state's own: callers must not modify it.
func (s *State) SortedViews() []*View { return s.views }

// HasAllVariableView reports whether some view has no constants at all —
// the stopvar stop condition (Section 5.2).
func (s *State) HasAllVariableView() bool { return s.allVar > 0 }

// HasTripleTableView reports whether some view is the full triple table t —
// a single all-variable atom with all three variables distinct — the stoptt
// stop condition (Section 5.2).
func (s *State) HasTripleTableView() bool { return s.tripleTable > 0 }

// derive builds a successor state: views in removed are dropped, views in
// added inserted, the legs that scan a removed view rewritten through subs
// (one replacement per removed view, over the added views), and the stage
// raised to at least minStage.
func (s *State) derive(removed []algebra.ViewID, added []*View, subs map[algebra.ViewID]algebra.Plan, minStage Stage) *State {
	ns := &State{
		Stage:       max(s.Stage, minStage),
		views:       make([]*View, 0, len(s.views)+len(added)),
		allVar:      s.allVar,
		tripleTable: s.tripleTable,
		from:        s.from,
	}
	if s.est != nil {
		ns.from = s
	}
	var dropBuf, addBuf [2]uint32
	drop, add := dropBuf[:0], addBuf[:0]
	// The removed views are found by ID, in ID order; the runs of views
	// between them are copied whole.
	var goneBuf [2]algebra.ViewID
	gone := append(goneBuf[:0], removed...)
	slices.Sort(gone)
	at := 0
	for _, id := range gone {
		k, ok := slices.BinarySearchFunc(s.views[at:], id, func(v *View, id algebra.ViewID) int { return cmp.Compare(v.ID, id) })
		if !ok {
			continue
		}
		k += at
		ns.views = append(ns.views, s.views[at:k]...)
		ns.count(s.views[k], -1)
		drop = append(drop, s.views[k].codeID)
		at = k + 1
	}
	ns.views = append(ns.views, s.views[at:]...)
	for _, v := range added {
		ns.count(v, 1)
		ns.views = append(ns.views, v)
		add = append(add, v.codeID)
		// Fresh IDs are the largest so far; keep the order whatever the caller's.
		for i := len(ns.views) - 1; i > 0 && ns.views[i-1].ID > ns.views[i].ID; i-- {
			ns.views[i-1], ns.views[i] = ns.views[i], ns.views[i-1]
		}
	}
	slices.Sort(drop)
	slices.Sort(add)
	ns.key = rekey(s.key, drop, add)
	// The added views are the last of ns.views, in ID order. Every
	// replacement scans each of them, so a rewritten leg's list is its old
	// one without the removed IDs and with these, the largest, appended.
	var freshBuf [2]algebra.ViewID
	fresh := freshBuf[:0]
	for _, v := range ns.views[len(ns.views)-len(added):] {
		fresh = append(fresh, v.ID)
	}
	// Only the legs that scan a removed view are rewritten. Every other leg,
	// plan and list stays the same pointer, which is how Cost knows its
	// costing still holds.
	ns.Plans, ns.scans = slices.Clone(s.Plans), slices.Clone(s.scans)
	for i, ps := range s.scans {
		if !scansAny(ps.all, removed) {
			continue
		}
		legs := slices.Clone(ps.legs)
		// A union's branches are copied; its untouched ones stay shared.
		var branches []algebra.Plan
		if u, ok := s.Plans[i].(*algebra.Union); ok {
			branches = slices.Clone(u.Branches)
			ns.Plans[i] = &algebra.Union{Branches: branches}
		}
		for b, ids := range ps.legs {
			if !scansAny(ids, removed) {
				continue
			}
			legs[b] = rescan(ids, removed, fresh)
			leg := &ns.Plans[i]
			if branches != nil {
				leg = &branches[b]
			}
			*leg = algebra.SubstituteViews(*leg, subs)
		}
		// Every leg that scanned a removed view now scans the fresh ones.
		all := legs[0]
		if len(legs) != 1 {
			all = rescan(ps.all, removed, fresh)
		}
		ns.scans[i] = planScans{all: all, legs: legs}
	}
	return ns
}

// scansAny reports whether ids holds one of removed, which is one or two
// IDs: a linear scan beats a binary search.
func scansAny(ids, removed []algebra.ViewID) bool {
	for _, id := range ids {
		for _, r := range removed {
			if id == r {
				return true
			}
		}
	}
	return false
}

// rescan returns a new list: ids without removed, with fresh appended.
func rescan(ids, removed, fresh []algebra.ViewID) []algebra.ViewID {
	out := make([]algebra.ViewID, 0, len(ids)+len(fresh))
	for _, id := range ids {
		if !slices.Contains(removed, id) {
			out = append(out, id)
		}
	}
	return append(out, fresh...)
}

// Format renders the state for debugging: each view and each rewriting.
func (s *State) Format() string {
	var sb strings.Builder
	for _, v := range s.views {
		fmt.Fprintf(&sb, "v%d: %s\n", int(v.ID), v.Q)
	}
	for i, p := range s.Plans {
		fmt.Fprintf(&sb, "r%d = %s\n", i+1, p)
	}
	return sb.String()
}
