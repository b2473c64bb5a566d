package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
)

// Parallel search — the future-work direction of Section 8: "parallelizing
// our view search algorithms by identifying workload queries that do not
// have many commonalities and running the search in parallel for each
// group". Queries are grouped by shared atom shapes (two queries with no
// common relaxed atom pattern offer no view-sharing opportunity, since every
// shared view ultimately derives from common atom structure); each group is
// searched independently, and the per-group best states combine into one
// candidate view set for the whole workload — view sets are disjoint and the
// cost function is additive over views and rewritings, so the combination's
// cost is the sum of the parts.

// PartitionWorkload groups query indexes by commonality: queries are
// connected when they share at least one atom shape (an atom with variables
// normalized away, keeping constants). Every returned group is sorted.
func PartitionWorkload(queries []*cq.Query) [][]int {
	n := len(queries)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	shapeOwner := make(map[[3]cq.Term]int)
	for i, q := range queries {
		for _, a := range q.Atoms {
			var shape [3]cq.Term
			for p := 0; p < 3; p++ {
				if a[p].IsConst() {
					shape[p] = a[p]
				}
			}
			if prev, ok := shapeOwner[shape]; ok {
				union(prev, i)
			} else {
				shapeOwner[shape] = i
			}
		}
	}
	groups := make(map[int][]int)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		sort.Ints(groups[r])
		out = append(out, groups[r])
	}
	return out
}

// ParallelResult augments a Result with the partition actually used.
type ParallelResult struct {
	Result
	Groups [][]int
}

// SearchParallel partitions the workload, runs the configured strategy on
// every group concurrently (workers ≤ 0 selects GOMAXPROCS), and combines
// the per-group best states into one state for the full workload. The
// Timeout applies per group. Stop-condition and heuristic options apply
// unchanged; the relational competitor strategies are not supported (their
// divide-and-conquer already operates per query).
func SearchParallel(queries []*cq.Query, opts Options, workers int) (ParallelResult, error) {
	if opts.Estimator == nil {
		return ParallelResult{}, fmt.Errorf("core: Options.Estimator is required")
	}
	switch opts.Strategy {
	case RelPruning, RelGreedy, RelHeuristic:
		return ParallelResult{}, fmt.Errorf("core: SearchParallel does not support the relational strategies")
	}
	groups := PartitionWorkload(queries)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}

	type groupRun struct {
		idx  int
		res  Result
		err  error
		best *State
	}
	runs := make([]groupRun, len(groups))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	start := time.Now()
	for gi, group := range groups {
		wg.Add(1)
		go func(gi int, group []int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sub := make([]*cq.Query, len(group))
			for k, qi := range group {
				sub[k] = queries[qi]
			}
			s0, ctx, err := InitialState(sub)
			if err != nil {
				runs[gi] = groupRun{idx: gi, err: err}
				return
			}
			// The estimator's memo is unsynchronized: every group fills its own,
			// over the shared statistics.
			gopts := opts
			gopts.Estimator = cost.NewEstimator(opts.Estimator.Stats, opts.Estimator.W)
			res, err := Search(s0, ctx, gopts)
			runs[gi] = groupRun{idx: gi, res: res, err: err, best: res.Best}
		}(gi, group)
	}
	wg.Wait()

	out := ParallelResult{Groups: groups}
	var views []*View
	plans := make([]algebra.Plan, len(queries))
	// Per-group view IDs all start at 1; remap into disjoint ranges.
	nextID := algebra.ViewID(1)
	for gi, run := range runs {
		if run.err != nil {
			return ParallelResult{}, fmt.Errorf("core: group %d: %w", gi, run.err)
		}
		remap := make(map[algebra.ViewID]algebra.Plan, run.best.NumViews())
		for _, v := range run.best.SortedViews() {
			nv := NewView(nextID, v.Q)
			nextID++
			views = append(views, nv)
			remap[v.ID] = algebra.NewScan(nv.ID, nv.Q.Head)
		}
		for k, qi := range groups[gi] {
			plans[qi] = algebra.SubstituteViews(run.best.Plans[k], remap)
		}
		out.Counters.Created += run.res.Counters.Created
		out.Counters.Duplicates += run.res.Counters.Duplicates
		out.Counters.Discarded += run.res.Counters.Discarded
		out.Counters.Explored += run.res.Counters.Explored
		out.Transitions += run.res.Transitions
		out.StatesSeen += run.res.StatesSeen
		out.InitialCost.VSO += run.res.InitialCost.VSO
		out.InitialCost.REC += run.res.InitialCost.REC
		out.InitialCost.VMC += run.res.InitialCost.VMC
		out.InitialCost.Total += run.res.InitialCost.Total
		if run.res.TimedOut {
			out.TimedOut = true
		}
	}
	combined := newState(views, plans, StageVF).publish()
	out.Best = combined
	out.BestCost = combined.Cost(opts.Estimator)
	out.Duration = time.Since(start)
	out.AvgAtomsPerView = combined.AvgAtomsPerView()
	return out, nil
}
