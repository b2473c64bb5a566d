package rdfviews

import (
	"context"
	"fmt"
	"time"

	"rdfviews/internal/algebra"
	"rdfviews/internal/core"
	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
	"rdfviews/internal/engine"
	"rdfviews/internal/reason"
	"rdfviews/internal/stats"
)

// Strategy names a search strategy (Section 5 of the paper, plus the
// relational competitors of Section 6.1).
type Strategy string

// The available strategies. DFS and GSTR are the paper's scalable
// strategies; the default is DFS with AVF and STV, the configuration the
// paper's large-workload experiments use.
const (
	StrategyDFS       Strategy = "dfs"
	StrategyGSTR      Strategy = "gstr"
	StrategyExNaive   Strategy = "exnaive"
	StrategyExStr     Strategy = "exstr"
	StrategyPruning   Strategy = "pruning"
	StrategyGreedy    Strategy = "greedy"
	StrategyHeuristic Strategy = "heuristic"
)

func (s Strategy) toCore() (core.Strategy, error) {
	switch s {
	case StrategyDFS, "":
		return core.DFS, nil
	case StrategyGSTR:
		return core.GSTR, nil
	case StrategyExNaive:
		return core.ExNaive, nil
	case StrategyExStr:
		return core.ExStr, nil
	case StrategyPruning:
		return core.RelPruning, nil
	case StrategyGreedy:
		return core.RelGreedy, nil
	case StrategyHeuristic:
		return core.RelHeuristic, nil
	}
	return 0, fmt.Errorf("rdfviews: unknown strategy %q", s)
}

// Reasoning selects how implicit triples entailed by the RDF Schema are
// taken into account (Section 4.3).
type Reasoning string

// The reasoning modes.
const (
	// ReasoningNone ignores the schema: only explicit triples count.
	ReasoningNone Reasoning = "none"
	// ReasoningSaturate answers as if the database were saturated with every
	// implicit triple. By Theorem 4.2 that is what post-reformulation computes
	// over the explicit triples, so Recommend runs it as ReasoningPost (the
	// recommendation reports post) and no saturated copy is ever built.
	ReasoningSaturate Reasoning = "saturate"
	// ReasoningPost is post-reformulation: the search runs on the original
	// workload with reformulated (saturated-equivalent) statistics, and the
	// recommended views are reformulated at materialization time. Best
	// choice when the database cannot be saturated.
	ReasoningPost Reasoning = "post"
	// ReasoningPre is pre-reformulation: the workload is reformulated before
	// the search, whose initial state holds one view per union term.
	ReasoningPre Reasoning = "pre"
)

// Weights exposes the cost-function weights of Section 3.3.
type Weights struct {
	CS, CR, CM float64 // view space, rewriting evaluation, maintenance
	C1, C2     float64 // io and cpu inside REC
	F          float64 // maintenance fan-out: VMC = Σ f^len(v)
}

// Options configures Recommend. The zero value selects the paper's defaults:
// DFS-AVF-STV, cs=cr=1, auto-calibrated cm, f=2, saturation-free reasoning
// mode "none" when no schema is loaded and "post" otherwise.
type Options struct {
	Strategy  Strategy
	Reasoning Reasoning
	// DisableAVF switches aggressive view fusion off (on by default).
	DisableAVF bool
	// DisableSTV switches the stopvar condition off (on by default).
	DisableSTV bool
	// STT enables the stoptt stop condition.
	STT bool
	// Timeout is the stoptime stop condition (default 10s; the paper used 30
	// minutes to 3 hours — view selection is an off-line process).
	Timeout time.Duration
	// MaxStates caps created states (0 = unlimited).
	MaxStates int
	// Weights overrides the cost weights; zero fields take defaults. When CM
	// is zero it is auto-calibrated so that cm·VMC(S0) sits two orders of
	// magnitude below the other cost components (Section 6).
	Weights Weights
	// MaxUnionTerms bounds reformulation size (0 = library default): the
	// union of each reformulated workload query and view the search and
	// maintenance read. An ad-hoc answer of the recommendation's LiveViews is
	// reformulated per atom instead, so there it bounds the members the query
	// has under reformulation rules 5–6 (bindings of class and property
	// variables) and the alternatives of any one atom, not their product.
	MaxUnionTerms int
}

func (o Options) weights() cost.Weights {
	w := cost.DefaultWeights()
	if o.Weights.CS != 0 {
		w.CS = o.Weights.CS
	}
	if o.Weights.CR != 0 {
		w.CR = o.Weights.CR
	}
	if o.Weights.CM != 0 {
		w.CM = o.Weights.CM
	}
	if o.Weights.C1 != 0 {
		w.C1 = o.Weights.C1
	}
	if o.Weights.C2 != 0 {
		w.C2 = o.Weights.C2
	}
	if o.Weights.F != 0 {
		w.F = o.Weights.F
	}
	return w
}

// Recommendation is the output of view selection: the recommended views,
// one rewriting per workload query, and the search report.
type Recommendation struct {
	db            *Database
	workload      *Workload
	mode          Reasoning
	schema        *reason.Schema
	state         *core.State
	result        core.Result
	estimator     *cost.Estimator
	maxUnionTerms int
}

// RCR returns the relative cost reduction achieved by the search.
func (r *Recommendation) RCR() float64 { return r.result.RCR() }

// NumViews returns the number of recommended views.
func (r *Recommendation) NumViews() int { return r.state.NumViews() }

// Result exposes the full search report (counters, timeline, costs).
func (r *Recommendation) Result() core.Result { return r.result }

// ViewDefinitions renders the recommended views in the paper's notation.
func (r *Recommendation) ViewDefinitions() []string {
	var out []string
	for _, v := range r.state.SortedViews() {
		out = append(out, fmt.Sprintf("v%d%s", int(v.ID),
			v.Q.Format(r.db.st.Dict())[1:])) // strip the leading "q"
	}
	return out
}

// Rewritings renders the algebraic rewriting of each workload query.
func (r *Recommendation) Rewritings() []string {
	out := make([]string, len(r.state.Plans))
	for i, p := range r.state.Plans {
		out[i] = p.String()
	}
	return out
}

// Cost returns the estimated cost breakdown of the recommended state.
func (r *Recommendation) Cost() cost.Breakdown { return r.result.BestCost }

// InitialCost returns the estimated cost of the initial state S0.
func (r *Recommendation) InitialCost() cost.Breakdown { return r.result.InitialCost }

// Materialized is a set of materialized views able to answer the workload
// without the database — the client-side artifact of the paper's off-line
// scenario.
type Materialized struct {
	rec     *Recommendation
	extents map[algebra.ViewID]*engine.Relation
}

// members is what view v's extent is over the database's explicit store: the
// union of its reformulation under post-reformulation (Theorem 4.2 makes
// its answers there the view's answers on the saturated database), the view
// alone otherwise. Materialize, MaintainWithOptions and ExplainPhysical all
// read it.
func (r *Recommendation) members(v *core.View) (*cq.UCQ, error) {
	if r.mode != ReasoningPost {
		return &cq.UCQ{Queries: []*cq.Query{v.Q}}, nil
	}
	u, err := reason.Reformulate(v.Q, r.schema, r.maxUnionTerms)
	if err != nil {
		return nil, fmt.Errorf("rdfviews: reformulating view v%d: %w", int(v.ID), err)
	}
	return u, nil
}

// Materialize computes the extent of every recommended view: the distinct
// union of its members' answers on the database's store.
func (r *Recommendation) Materialize() (*Materialized, error) {
	extents := make(map[algebra.ViewID]*engine.Relation, r.state.NumViews())
	for id, v := range r.state.Views {
		u, err := r.members(v)
		if err != nil {
			return nil, err
		}
		rel, err := engine.MaterializeUCQ(r.db.st, u)
		if err != nil {
			return nil, fmt.Errorf("rdfviews: materializing view v%d: %w", int(id), err)
		}
		extents[id] = rel
	}
	return &Materialized{rec: r, extents: extents}, nil
}

// NumRows returns the total number of materialized tuples.
func (m *Materialized) NumRows() int {
	n := 0
	for _, rel := range m.extents {
		n += rel.Len()
	}
	return n
}

// SizeBytes returns the bytes the extents' 32-bit column slabs hold.
func (m *Materialized) SizeBytes() int {
	n := 0
	for _, rel := range m.extents {
		n += rel.SizeBytes()
	}
	return n
}

// Answer executes the rewriting of workload query i over the materialized
// views only and returns decoded rows.
func (m *Materialized) Answer(i int) ([][]string, error) {
	rs, err := m.open(i)
	if err != nil {
		return nil, err
	}
	return newAnswerStream(rs, nil, m.rec.db.st.Dict()).collect()
}

// AnswerRelation is Answer without decoding.
func (m *Materialized) AnswerRelation(i int) (*engine.Relation, error) {
	rs, err := m.open(i)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

// open runs rewriting i over the extents.
func (m *Materialized) open(i int) (*engine.RowStream, error) {
	return openRewriting(context.Background(), m.rec.state.Plans, i, engine.MapResolver(m.extents))
}

// Recommend runs view selection for the workload (Definition 2.4: find the
// candidate view set minimizing the cost function).
func (db *Database) Recommend(w *Workload, opts Options) (*Recommendation, error) {
	if w == nil || len(w.Queries) == 0 {
		return nil, fmt.Errorf("rdfviews: empty workload")
	}
	mode := opts.Reasoning
	switch {
	case mode == "" && db.schema.Len() == 0:
		mode = ReasoningNone
	case mode == "", mode == ReasoningSaturate:
		// Theorem 4.2: saturating the database and reformulating over its
		// explicit triples answer alike, so saturation runs as post.
		mode = ReasoningPost
	}
	if opts.Timeout == 0 {
		opts.Timeout = 10 * time.Second
	}
	strategy, err := opts.Strategy.toCore()
	if err != nil {
		return nil, err
	}
	schema := db.reasonSchema()

	// Statistics per reasoning mode. What is a function of (data, schema)
	// comes from the pin; an index count is a binary search, so StoreStats is
	// made per call.
	var provider cost.Stats
	switch mode {
	case ReasoningNone, ReasoningPre:
		provider = stats.NewStoreStats(db.st)
	case ReasoningPost:
		provider = db.reformStats()
	default:
		return nil, fmt.Errorf("rdfviews: unknown reasoning mode %q", mode)
	}

	// Initial state: plain, or one view per reformulated union term (pre).
	var s0 *core.State
	var ctx *core.Ctx
	if mode == ReasoningPre {
		reforms := make([]*cq.UCQ, len(w.Queries))
		for i, q := range w.Queries {
			u, err := reason.Reformulate(q, schema, opts.MaxUnionTerms)
			if err != nil {
				return nil, fmt.Errorf("rdfviews: reformulating query %d: %w", i+1, err)
			}
			reforms[i] = u
		}
		s0, ctx, err = core.InitialStateUCQ(w.Queries, reforms)
	} else {
		s0, ctx, err = core.InitialState(w.Queries)
	}
	if err != nil {
		return nil, err
	}

	w8 := opts.weights()
	est := cost.NewEstimator(provider, w8)
	if opts.Weights.CM == 0 {
		est.W.CM = est.CalibrateCM(s0.ViewQueries(), s0.Plans)
	}
	res, err := core.Search(s0, ctx, core.Options{
		Strategy:  strategy,
		AVF:       !opts.DisableAVF,
		STV:       !opts.DisableSTV,
		STT:       opts.STT,
		Timeout:   opts.Timeout,
		MaxStates: opts.MaxStates,
		Estimator: est,
		Timeline:  true,
	})
	if err != nil {
		return nil, err
	}
	// The search's estimator holds terms for every view of every state it
	// costed; the recommendation keeps one that knows the recommended views
	// only. Costing the best state with it fills it, so that Explain and the
	// statistics accessors only ever read it, from any number of goroutines.
	keep := cost.NewEstimator(provider, est.W)
	res.Best.Cost(keep)
	return &Recommendation{
		db:            db,
		workload:      w,
		mode:          mode,
		schema:        schema,
		state:         res.Best,
		result:        res,
		estimator:     keep,
		maxUnionTerms: opts.MaxUnionTerms,
	}, nil
}
