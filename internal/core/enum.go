package core

import (
	"rdfviews/internal/algebra"
)

// Transition enumeration: for a state and a transition kind, visit every
// applicable transition in a deterministic order, constructing successor
// states lazily. The visitor returns false to stop the enumeration.

// enumKind dispatches on the transition kind.
func (c *Ctx) enumKind(kind Stage, s *State, yield func(*State) bool) bool {
	switch kind {
	case StageVB:
		return c.enumVB(s, yield)
	case StageSC:
		return c.enumSC(s, yield)
	case StageJC:
		return c.enumJC(s, yield)
	default:
		return c.enumVF(s, yield)
	}
}

// enumSC enumerates Selection Cuts: one per selection edge of every view.
func (c *Ctx) enumSC(s *State, yield func(*State) bool) bool {
	for _, v := range s.SortedViews() {
		for _, e := range selectionEdges(v.Q) {
			if ns := c.applySC(s, v.ID, e.atom, e.pos); ns != nil {
				if !yield(ns) {
					return false
				}
			}
		}
	}
	return true
}

// enumJC enumerates Join Cuts: for every variable with k ≥ 2 occurrences in
// a view, each occurrence can be separated from the rest (the effect of
// cutting any join edge incident to that occurrence in the Definition 3.1
// graph depends only on which occurrence receives the fresh variable).
func (c *Ctx) enumJC(s *State, yield func(*State) bool) bool {
	for _, v := range s.SortedViews() {
		joinVars, occs := joinVarOccurrences(v.Q)
		for _, x := range joinVars {
			for _, o := range occs[x] {
				if ns := c.applyJC(s, v.ID, x, o.atom, o.pos); ns != nil {
					if !yield(ns) {
						return false
					}
				}
			}
		}
	}
	return true
}

// enumVB enumerates View Breaks: all pairs of connected node covers
// (mask1, mask2) with mask1 ∪ mask2 = all atoms and neither containing the
// other. By the swap symmetry of the pair, atom 0 is fixed into mask1.
// The valid pairs depend only on the view body, so they are computed once
// per View and cached there — states share View pointers, and the same view
// recurs across a great many states.
func (c *Ctx) enumVB(s *State, yield func(*State) bool) bool {
	for _, v := range s.SortedViews() {
		for _, pair := range v.vbCandidates() {
			if ns := c.applyVB(s, v.ID, pair[0], pair[1]); ns != nil {
				if !yield(ns) {
					return false
				}
			}
		}
	}
	return true
}

// enumVF enumerates View Fusions: every unordered pair of views with equal
// body codes, i < j by ID. Only a view whose body ID occurs twice or more can
// pair, so the body IDs are counted first and the pairs drawn from those
// views alone, in the order of the all-pairs scan.
func (c *Ctx) enumVF(s *State, yield func(*State) bool) bool {
	views := s.SortedViews()
	if n := len(c.bodies); len(c.bodyCount) < n {
		c.bodyCount = append(c.bodyCount, make([]int32, n-len(c.bodyCount))...)
	}
	count := c.bodyCount
	for _, v := range views {
		count[v.bodyID]++
	}
	var paired []*View
	for _, v := range views {
		if count[v.bodyID] > 1 {
			paired = append(paired, v)
		}
	}
	// The counters are cleared before yielding: a yield may re-enter enumVF.
	for _, v := range views {
		count[v.bodyID] = 0
	}
	for i, a := range paired {
		for _, b := range paired[i+1:] {
			if a.bodyID != b.bodyID {
				continue
			}
			if ns := c.applyVF(s, a.ID, b.ID); ns != nil {
				if !yield(ns) {
					return false
				}
			}
		}
	}
	return true
}

// firstVF returns the first applicable fusion, or nil — the step function of
// the AVF closure. On a state without two equal bodies, which is where every
// closure ends, it allocates nothing.
func (c *Ctx) firstVF(s *State) *State {
	var out *State
	c.enumVF(s, func(ns *State) bool {
		out = ns
		return false
	})
	return out
}

// avfClose applies View Fusions exhaustively (Aggressive View Fusion,
// Section 5.2): repeated fusions converge to a single state S_VF whose cost
// is no higher than any intermediate's, since VF always reduces cost. The
// returned state keeps the stage of s, so stratified strategies can continue
// applying SC/JC after aggressive fusions. onIntermediate (optional) observes
// each intermediate fused state, for the search counters.
func (c *Ctx) avfClose(s *State, onIntermediate func(*State)) *State {
	cur := s
	for {
		next := c.firstVF(cur)
		if next == nil {
			if cur != s {
				cur.Stage = s.Stage
			}
			return cur
		}
		if onIntermediate != nil && cur != s {
			onIntermediate(cur)
		}
		next.Stage = s.Stage
		cur = next
	}
}

// viewIDs lists a state's view IDs (sorted), for tests.
func viewIDs(s *State) []algebra.ViewID {
	var out []algebra.ViewID
	for _, v := range s.SortedViews() {
		out = append(out, v.ID)
	}
	return out
}
