package core

import (
	"errors"
	"fmt"
	"time"

	"rdfviews/internal/cost"
)

// Strategy selects the search algorithm (Sections 5 and 6.1).
type Strategy int

// The strategies of the paper: ours (EXNAIVE, EXSTR, DFS, GSTR) and the
// relational competitors of [21] (Pruning, Greedy, Heuristic).
const (
	ExNaive Strategy = iota
	ExStr
	DFS
	GSTR
	RelPruning
	RelGreedy
	RelHeuristic
)

func (s Strategy) String() string {
	switch s {
	case ExNaive:
		return "EXNAIVE"
	case ExStr:
		return "EXSTR"
	case DFS:
		return "DFS"
	case GSTR:
		return "GSTR"
	case RelPruning:
		return "Pruning"
	case RelGreedy:
		return "Greedy"
	case RelHeuristic:
		return "Heuristic"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options configures a search run.
type Options struct {
	Strategy Strategy
	// AVF enables aggressive view fusion (Section 5.2): every state reached
	// by SC/JC/VB is immediately fused to its VF fixpoint.
	AVF bool
	// STV enables the stopvar stop condition: states with an all-variable
	// view are discarded (unless the initial state already has one).
	STV bool
	// STT enables the stoptt stop condition: states with the full triple
	// table as a view are discarded.
	STT bool
	// Timeout is the stoptime stop condition; zero means no limit.
	Timeout time.Duration
	// MaxStates bounds the number of states created; for the [21] strategies
	// exceeding it reproduces their out-of-memory failure (ErrStateBudget),
	// for ours the search stops gracefully with the best state so far.
	// Zero means no limit.
	MaxStates int
	// Estimator is the cost function cε. Required.
	Estimator *cost.Estimator
	// Timeline enables recording (elapsed, best-cost) points (Figure 7).
	Timeline bool
}

// ErrStateBudget reports that a competitor strategy outgrew the state
// budget, reproducing the out-of-memory failures of [21] observed in
// Section 6.2.
var ErrStateBudget = errors.New("core: state budget exhausted before a complete view set was produced")

// Counters are the search statistics plotted in Figure 5.
type Counters struct {
	// Created counts states constructed by transitions (including ones later
	// found to be duplicates or discarded).
	Created int
	// Duplicates counts created states whose view set was already reached
	// through a different path.
	Duplicates int
	// Discarded counts created states excluded by stop conditions.
	Discarded int
	// Explored counts states from which all outgoing transitions permitted
	// by the strategy have been enumerated.
	Explored int
}

// TimelinePoint records the best cost known at a moment of the search.
type TimelinePoint struct {
	Elapsed time.Duration
	Cost    float64
}

// Result reports the outcome of a search.
type Result struct {
	Best        *State
	BestCost    cost.Breakdown
	InitialCost cost.Breakdown
	Counters    Counters
	// Transitions counts transition applications (Theorem 5.3's measure).
	Transitions int
	Duration    time.Duration
	Timeline    []TimelinePoint
	// TimedOut reports whether stoptime ended the search.
	TimedOut bool
	// StatesSeen is the number of distinct states reached (incl. S0).
	StatesSeen int
	// AvgAtomsPerView is taken from the best state (Section 6.4).
	AvgAtomsPerView float64
}

// RCR is the relative cost reduction (cε(S0) − cε(Sb)) / cε(S0) of
// Section 6.1.
func (r Result) RCR() float64 {
	if r.InitialCost.Total <= 0 {
		return 0
	}
	return (r.InitialCost.Total - r.BestCost.Total) / r.InitialCost.Total
}

// searcher carries the shared machinery of all strategies.
type searcher struct {
	ctx  *Ctx
	opts Options

	seen  map[string]struct{} // state keys
	best  *State
	bestC cost.Breakdown

	initialAllVar bool
	start         time.Time
	deadline      time.Time
	hasDeadline   bool

	res Result

	// check, when set (by tests), sees every created state after its AVF
	// closure and before the duplicate test.
	check func(*State)
}

// Search runs the configured strategy from the initial state. ctx must be
// the context returned by InitialState/InitialStateUCQ.
func Search(initial *State, ctx *Ctx, opts Options) (Result, error) {
	if opts.Estimator == nil {
		return Result{}, fmt.Errorf("core: Options.Estimator is required")
	}
	return newSearcher(initial, ctx, opts).run(initial)
}

func newSearcher(initial *State, ctx *Ctx, opts Options) *searcher {
	// Every state of the run is costed as a delta over its predecessor, so
	// the root must carry this run's estimator, whoever costed it before.
	initial.est = nil
	return &searcher{
		ctx:           ctx,
		opts:          opts,
		seen:          map[string]struct{}{string(initial.key): {}},
		best:          initial,
		bestC:         initial.Cost(opts.Estimator),
		initialAllVar: initial.HasAllVariableView(),
		start:         time.Now(),
	}
}

func (sr *searcher) run(initial *State) (Result, error) {
	opts := sr.opts
	if opts.Timeout > 0 {
		sr.deadline = sr.start.Add(opts.Timeout)
		sr.hasDeadline = true
	}
	sr.res.InitialCost = sr.bestC
	sr.point()

	// Anytime seeding: with AVF enabled, the VF-closure of S0 is reachable
	// through the legal stratified path S0 →VF…→ S_VF and — View Fusion only
	// ever reducing cost (Section 3.3) — is the cheapest state any strategy
	// would bank first. Surfacing it immediately makes every strategy useful
	// under small stoptime budgets; exploration then proceeds normally.
	seeds := []*State{initial}
	if opts.AVF {
		if fused := sr.admit(initial); fused != nil && fused != initial {
			seeds = append([]*State{fused}, seeds...)
		}
	}

	var err error
	switch opts.Strategy {
	case ExNaive:
		sr.exhaustive(seeds, false)
	case ExStr:
		sr.exhaustive(seeds, true)
	case DFS:
		for _, s := range seeds {
			sr.dfs(s, s.Stage)
		}
	case GSTR:
		sr.gstr(initial)
	case RelPruning, RelGreedy, RelHeuristic:
		err = sr.relational(initial)
	default:
		return Result{}, fmt.Errorf("core: unknown strategy %v", opts.Strategy)
	}

	// The best state leaves with its view map filled and without the run's
	// estimator, whose memo covers every view the search ever costed.
	sr.best.est, sr.best.recs, sr.best.legCosts, sr.best.from = nil, nil, nil, nil
	sr.res.Best = sr.best.publish()
	sr.res.BestCost = sr.bestC
	sr.res.Duration = time.Since(sr.start)
	sr.res.StatesSeen = len(sr.seen)
	sr.res.AvgAtomsPerView = sr.best.AvgAtomsPerView()
	sr.point()
	return sr.res, err
}

func (sr *searcher) timeUp() bool {
	if sr.hasDeadline && !time.Now().Before(sr.deadline) {
		sr.res.TimedOut = true
		return true
	}
	return false
}

func (sr *searcher) budgetUp() bool {
	return sr.opts.MaxStates > 0 && sr.res.Counters.Created >= sr.opts.MaxStates
}

func (sr *searcher) point() {
	if sr.opts.Timeline {
		sr.res.Timeline = append(sr.res.Timeline, TimelinePoint{
			Elapsed: time.Since(sr.start),
			Cost:    sr.bestC.Total,
		})
	}
}

// admit registers a freshly created state: duplicate and stop-condition
// checks, best-state tracking, AVF closure. It returns the state the search
// should continue from (nil when the state must not be explored further).
func (sr *searcher) admit(ns *State) *State {
	sr.res.Counters.Created++
	sr.res.Transitions++
	if sr.opts.AVF {
		ns = sr.ctx.AVFClose(ns, func(intermediate *State) {
			sr.res.Counters.Created++
			sr.res.Transitions++
			sr.res.Counters.Discarded++
		})
	}
	if sr.check != nil {
		sr.check(ns)
	}
	if !firstSight(sr.seen, ns) {
		sr.res.Counters.Duplicates++
		return nil
	}
	if sr.discard(ns) {
		sr.res.Counters.Discarded++
		return nil
	}
	c := ns.Cost(sr.opts.Estimator)
	if c.Total < sr.bestC.Total {
		sr.best, sr.bestC = ns, c
		sr.point()
	}
	return ns
}

// firstSight records s's key in seen and reports whether it was new there.
func firstSight(seen map[string]struct{}, s *State) bool {
	if _, dup := seen[string(s.key)]; dup {
		return false
	}
	seen[string(s.key)] = struct{}{}
	return true
}

// discard applies the stopvar/stoptt stop conditions.
func (sr *searcher) discard(s *State) bool {
	if sr.opts.STV && !sr.initialAllVar && s.HasAllVariableView() {
		return true
	}
	if sr.opts.STT && s.HasTripleTableView() {
		return true
	}
	return false
}

// kindsFor returns the transition kinds a strategy may apply to a state:
// EXNAIVE tries every kind in the paper's {SC, JC, VB, VF} order; stratified
// strategies only apply kinds at or after the state's stage, most-relaxing
// first (VB, SC, JC, VF) per the EXSTR construction of Section 5.1.
func (sr *searcher) kindsFor(s *State, stratified bool) []Stage {
	if !stratified {
		return []Stage{StageSC, StageJC, StageVB, StageVF}
	}
	var out []Stage
	for k := s.Stage; k <= StageVF; k++ {
		out = append(out, k)
	}
	return out
}

// exhaustive implements Algorithm 2 (EXNAIVE) and its stratified variant
// EXSTR: a frontier CS of unexplored states is expanded until empty.
func (sr *searcher) exhaustive(seeds []*State, stratified bool) {
	frontier := append([]*State(nil), seeds...)
	for len(frontier) > 0 {
		if sr.timeUp() || sr.budgetUp() {
			return
		}
		s := frontier[0]
		frontier = frontier[1:]
		stopped := false
		for _, kind := range sr.kindsFor(s, stratified) {
			cont := sr.ctx.enumKind(kind, s, func(ns *State) bool {
				if sr.timeUp() || sr.budgetUp() {
					return false
				}
				if adm := sr.admit(ns); adm != nil {
					frontier = append(frontier, adm)
				}
				return true
			})
			if !cont {
				stopped = true
				break
			}
		}
		if stopped {
			return
		}
		sr.res.Counters.Explored++
	}
}

// dfs implements the stratified depth-first strategy of Section 5.2: each
// reached state is recursively explored kind by kind in stratified order,
// which keeps the frontier small compared to EXNAIVE.
func (sr *searcher) dfs(s *State, stage Stage) {
	if sr.timeUp() || sr.budgetUp() {
		return
	}
	for k := stage; k <= StageVF; k++ {
		cont := sr.ctx.enumKind(k, s, func(ns *State) bool {
			if sr.timeUp() || sr.budgetUp() {
				return false
			}
			if adm := sr.admit(ns); adm != nil {
				next := adm.Stage
				if k > next {
					next = k
				}
				sr.dfs(adm, next)
			}
			return true
		})
		if !cont {
			return
		}
	}
	sr.res.Counters.Explored++
}

// gstr implements the greedy stratified strategy GSTR (Section 5.2): for
// each stratum in VB, SC, JC, VF order, explore the closure of that
// transition kind from the current state, then keep only the best state
// found and move to the next stratum.
func (sr *searcher) gstr(initial *State) {
	cur := initial
	for k := StageVB; k <= StageVF; k++ {
		stageBest, stageBestC := cur, cur.Cost(sr.opts.Estimator)
		frontier := []*State{cur}
		for len(frontier) > 0 {
			if sr.timeUp() || sr.budgetUp() {
				break
			}
			s := frontier[0]
			frontier = frontier[1:]
			cont := sr.ctx.enumKind(k, s, func(ns *State) bool {
				if sr.timeUp() || sr.budgetUp() {
					return false
				}
				if adm := sr.admit(ns); adm != nil {
					frontier = append(frontier, adm)
					if c := adm.Cost(sr.opts.Estimator); c.Total < stageBestC.Total {
						stageBest, stageBestC = adm, c
					}
				}
				return true
			})
			if !cont {
				break
			}
			sr.res.Counters.Explored++
		}
		cur = stageBest
		if sr.timeUp() || sr.budgetUp() {
			return
		}
	}
}
