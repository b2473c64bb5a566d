package core

import (
	"slices"
	"sort"
	"time"

	"rdfviews/internal/algebra"
)

// The competitor strategies of Theodoratos, Ligoudistianos & Sellis [21],
// as described in Section 6.1: divide-and-conquer search that first builds
// all states for each single-query workload (all possible edge removals —
// selection and join cuts — then all possible view breaks), and then
// recombines one state per query into full-workload states, fusing views
// when an opportunity arises.
//
// Because any combination of partial states is a valid state, the number of
// combinations explodes with the workload size; the paper reports these
// strategies exhaust memory on workloads of 5 queries × 10 atoms before
// producing any complete state. The state budget models that failure mode.

// relational runs Pruning, Greedy or Heuristic.
func (sr *searcher) relational(initial *State) error {
	// Phase 1: per-query state sets. The stoptime budget is split evenly
	// across the per-query closures and the combination phase, so a large
	// first query cannot starve the rest (the paper's runs were long enough
	// that this did not matter).
	n := len(initial.Plans)
	perQuery := make([][]*State, n)
	for i, p := range initial.Plans {
		var phaseDeadline time.Time
		if sr.hasDeadline {
			remaining := time.Until(sr.deadline)
			phaseDeadline = time.Now().Add(remaining / time.Duration(n+1-i))
		}
		qs := sr.singleQueryState(initial, i, p)
		states, ok := sr.perQueryClosure(qs, phaseDeadline)
		if !ok {
			return ErrStateBudget
		}
		perQuery[i] = states
	}

	// Heuristic keeps, per query, the minimal-cost state plus any state
	// offering a fusion opportunity with a state kept for another query.
	if sr.opts.Strategy == RelHeuristic {
		perQuery = sr.heuristicFilter(perQuery)
	}

	// Phase 2: recombination.
	if sr.opts.Strategy == RelGreedy {
		// Greedy "develops very few states": it folds the queries one at a
		// time, keeping only the best combined state for the prefix — which
		// "may prevent finding the best combined state" later (Section 6.1).
		cur := sr.bestOf(perQuery[0])
		for i := 1; i < len(perQuery); i++ {
			var best *State
			bestC := 0.0
			for _, b := range perQuery[i] {
				if sr.timeUp() {
					return nil
				}
				comb := sr.ctx.avfClose(sr.combine(cur, b), func(*State) { sr.res.Counters.Created++ })
				sr.res.Counters.Created++
				if sr.budgetUp() {
					return ErrStateBudget
				}
				sr.note(comb)
				if c := comb.Cost(sr.opts.Estimator).Total; best == nil || c < bestC {
					best, bestC = comb, c
				}
			}
			cur = best
		}
		if cur != nil && len(cur.Plans) == len(perQuery) {
			if c := cur.Cost(sr.opts.Estimator); c.Total < sr.bestC.Total {
				sr.best, sr.bestC = cur, c
				sr.point()
			}
		}
		return nil
	}

	// Pruning and Heuristic materialize the cross product of partial
	// states, discarding partials whose cost already exceeds the best known
	// complete state (initially S0 — cost is additive and positive, so a
	// costlier prefix cannot win): the [21] pruning of "comparing two states
	// and discarding the less interesting one" (Section 6.1).
	bound := sr.bestC.Total
	partial := perQuery[0]
	for i := 1; i < len(perQuery); i++ {
		var next []*State
		seen := make(map[string]struct{})
		for _, a := range partial {
			for _, b := range perQuery[i] {
				if sr.timeUp() {
					return nil
				}
				comb := sr.combine(a, b)
				sr.res.Counters.Created++
				if sr.budgetUp() {
					return ErrStateBudget
				}
				candidates := []*State{comb}
				if fused := sr.ctx.avfClose(comb, func(*State) { sr.res.Counters.Created++ }); fused != comb {
					candidates = append(candidates, fused)
				}
				for _, cand := range candidates {
					if cand.Cost(sr.opts.Estimator).Total > bound {
						sr.res.Counters.Discarded++
						continue
					}
					if !firstSight(seen, cand) {
						sr.res.Counters.Duplicates++
						continue
					}
					sr.note(cand)
					next = append(next, cand)
				}
			}
		}
		if len(next) == 0 {
			// Everything pruned: fall back to the cheapest single extension
			// so a complete state is still produced.
			if best := sr.bestOf(perQuery[i]); best != nil && len(partial) > 0 {
				next = []*State{sr.combine(sr.bestOf(partial), best)}
			}
		}
		partial = next
	}

	// Complete states: pick the best.
	for _, s := range partial {
		if c := s.Cost(sr.opts.Estimator); c.Total < sr.bestC.Total {
			sr.best, sr.bestC = s, c
			sr.point()
		}
	}
	return nil
}

// note counts a state a relational phase admits in StatesSeen.
func (sr *searcher) note(s *State) {
	sr.seen[string(s.key)] = struct{}{}
}

// singleQueryState projects the initial state onto query i.
func (sr *searcher) singleQueryState(initial *State, i int, p algebra.Plan) *State {
	var views []*View
	for _, id := range initial.scans[i].all {
		views = append(views, initial.View(id))
	}
	return newState(views, []algebra.Plan{p}, initial.scans[i:i+1:i+1], StageVB)
}

// perQueryClosure enumerates all states reachable for a single-query
// workload: first the closure of edge removals (SC and JC), then all view
// breaks (VB), following the [21] order described in Section 6.1. It reports
// ok=false when the state budget is exhausted. A non-zero phaseDeadline caps
// this closure's share of the stoptime budget.
func (sr *searcher) perQueryClosure(s0 *State, phaseDeadline time.Time) ([]*State, bool) {
	all := []*State{s0}
	seen := map[string]struct{}{string(s0.key): {}}
	phaseUp := func() bool {
		return !phaseDeadline.IsZero() && !time.Now().Before(phaseDeadline)
	}

	// Per-query states costing more than the whole initial state can never
	// participate in a solution cheaper than S0 (costs are additive and
	// positive), so they are pruned — the per-state comparison pruning the
	// paper attributes to [21].
	bound := sr.bestC.Total
	expand := func(kinds []Stage) bool {
		frontier := append([]*State(nil), all...)
		for len(frontier) > 0 {
			if sr.timeUp() || phaseUp() {
				return true
			}
			s := frontier[0]
			frontier = frontier[1:]
			for _, k := range kinds {
				cont := sr.ctx.enumKind(k, s, func(ns *State) bool {
					sr.res.Counters.Created++
					sr.res.Transitions++
					if sr.budgetUp() {
						return false
					}
					if !firstSight(seen, ns) {
						sr.res.Counters.Duplicates++
						return true
					}
					sr.note(ns)
					if ns.Cost(sr.opts.Estimator).Total > bound {
						sr.res.Counters.Discarded++
						return true
					}
					all = append(all, ns)
					frontier = append(frontier, ns)
					return true
				})
				if !cont {
					return !sr.budgetUp()
				}
			}
			sr.res.Counters.Explored++
		}
		return true
	}
	if !expand([]Stage{StageSC, StageJC}) {
		return nil, false
	}
	if !expand([]Stage{StageVB}) {
		return nil, false
	}
	return all, true
}

// heuristicFilter keeps, per query, the minimal-cost state and every state
// sharing a view body with a minimal-cost state of another query (a fusion
// opportunity), per the Heuristic description in Section 6.1.
func (sr *searcher) heuristicFilter(perQuery [][]*State) [][]*State {
	mins := make([]*State, len(perQuery))
	for i, states := range perQuery {
		mins[i] = sr.bestOf(states)
	}
	// Body IDs of the other queries' minimal states.
	out := make([][]*State, len(perQuery))
	for i, states := range perQuery {
		otherBodies := make(map[uint32]struct{})
		for j, m := range mins {
			if i == j || m == nil {
				continue
			}
			for _, v := range m.views {
				otherBodies[v.bodyID] = struct{}{}
			}
		}
		kept := []*State{mins[i]}
		for _, s := range states {
			if s == mins[i] {
				continue
			}
			fusable := false
			for _, v := range s.views {
				if _, ok := otherBodies[v.bodyID]; ok {
					fusable = true
					break
				}
			}
			if fusable {
				kept = append(kept, s)
			}
		}
		out[i] = kept
	}
	return out
}

// combine merges two partial states covering disjoint query subsets.
func (sr *searcher) combine(a, b *State) *State {
	a.build()
	b.build()
	views := make([]*View, 0, len(a.views)+len(b.views))
	views = append(append(views, a.views...), b.views...)
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	plans := slices.Concat(a.Plans, b.Plans)
	return newState(views, plans, slices.Concat(a.scans, b.scans), StageVF)
}

// bestOf returns the lowest-cost state of the slice (nil for empty input).
func (sr *searcher) bestOf(states []*State) *State {
	var best *State
	bestC := 0.0
	for _, s := range states {
		c := s.Cost(sr.opts.Estimator).Total
		if best == nil || c < bestC {
			best, bestC = s, c
		}
	}
	return best
}
