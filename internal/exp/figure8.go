package exp

import (
	"fmt"
	"time"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cost"
	"rdfviews/internal/cq"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf3x"
	"rdfviews/internal/reason"
	"rdfviews/internal/stats"
	"rdfviews/internal/store"
)

// Figure 8 (Section 6.6): per-query execution times for workload Q1 under
// six evaluation methods:
//
//	(1) views recommended by pre-reformulation + their rewritings,
//	(2) views recommended by post-reformulation + their rewritings,
//	(3) the saturated triple table (index-nested-loop evaluation),
//	(4) a restricted triple table holding only the triples matching Q1's
//	    atom patterns,
//	(5) an RDF-3X-style native engine over the saturated data,
//	(6) the materialized initial state (each query stored as a view: a scan).
//
// The paper's findings to reproduce: views beat the (even restricted) triple
// table by an order of magnitude or more; pre- and post-reformulation views
// perform in the range of RDF-3X; materialized queries (6) are fastest.
type Fig8Row struct {
	Query int
	// Times per method, in nanoseconds (averaged over Repeats runs).
	PreViews  time.Duration
	PostViews time.Duration
	Saturated time.Duration
	Restrict  time.Duration
	RDF3X     time.Duration
	Initial   time.Duration
	Rows      int
}

// Fig8Result carries the rows plus the materialization statistics the paper
// quotes (view sizes as a fraction of the database).
type Fig8Result struct {
	Rows []Fig8Row
	// MaterializeTimePost/Pre and view-set sizes.
	MatTimePost  time.Duration
	MatTimePre   time.Duration
	MatRowsPost  int
	MatRowsPre   int
	DatabaseRows int
}

// Figure8 runs the experiment. Repeats ≥ 1 controls timing stability.
func Figure8(sc Scale, repeats int) (Fig8Result, error) {
	if repeats <= 0 {
		repeats = 3
	}
	tb := newTestbed(sc)
	q1, _, err := reformWorkloads(tb, sc)
	if err != nil {
		return Fig8Result{}, err
	}
	sat := reason.Saturate(tb.st, tb.schema)
	out := Fig8Result{DatabaseRows: sat.Len()}

	// (2) post-reformulation recommendation: search with reformulated stats,
	// materialize reformulated views on the original store.
	postEst := tb.postEstimator()
	postRes, err := searchTimeline(q1, nil, postEst, sc)
	if err != nil {
		return Fig8Result{}, err
	}
	t0 := time.Now()
	postMats := make(map[algebra.ViewID]*engine.Relation)
	for id, v := range postRes.Best.Views {
		u, err := reason.Reformulate(v.Q, tb.schema, 0)
		if err != nil {
			return Fig8Result{}, err
		}
		rel, err := engine.MaterializeUCQ(tb.st, u)
		if err != nil {
			return Fig8Result{}, err
		}
		postMats[id] = rel
		out.MatRowsPost += rel.Len()
	}
	out.MatTimePost = time.Since(t0)

	// (1) pre-reformulation recommendation: reformulated workload views
	// materialized directly.
	reforms := make([]*cq.UCQ, len(q1))
	for i, q := range q1 {
		u, err := reason.Reformulate(q, tb.schema, 0)
		if err != nil {
			return Fig8Result{}, err
		}
		reforms[i] = u
	}
	preEst := cost.NewEstimator(stats.NewStoreStats(tb.st), cost.DefaultWeights())
	preRes, err := searchTimeline(q1, reforms, preEst, sc)
	if err != nil {
		return Fig8Result{}, err
	}
	t0 = time.Now()
	preMats := make(map[algebra.ViewID]*engine.Relation)
	for id, v := range preRes.Best.Views {
		rel, err := engine.Materialize(tb.st, v.Q)
		if err != nil {
			return Fig8Result{}, err
		}
		preMats[id] = rel
		out.MatRowsPre += rel.Len()
	}
	out.MatTimePre = time.Since(t0)

	// (4) restricted triple table: only triples matching some atom of Q1
	// (evaluated against the saturated store, as the queries are). Warm both
	// stores so lazy index building stays out of the timed region.
	restricted := restrictStore(sat, q1)
	restricted.Count(store.Pattern{})
	sat.Count(store.Pattern{})

	// (5) RDF-3X over saturated data.
	x3 := rdf3x.New(sat)

	// (6) initial state: the queries themselves materialized.
	initMats := make([]*engine.Relation, len(q1))
	for i, q := range q1 {
		u, err := reason.Reformulate(q, tb.schema, 0)
		if err != nil {
			return Fig8Result{}, err
		}
		rel, err := engine.MaterializeUCQ(tb.st, u)
		if err != nil {
			return Fig8Result{}, err
		}
		initMats[i] = rel
	}

	timeIt := func(f func() (*engine.Relation, error)) (time.Duration, int, error) {
		var total time.Duration
		var rows int
		for r := 0; r < repeats; r++ {
			start := time.Now()
			rel, err := f()
			if err != nil {
				return 0, 0, err
			}
			total += time.Since(start)
			rows = rel.Len()
		}
		return total / time.Duration(repeats), rows, nil
	}

	for i, q := range q1 {
		row := Fig8Row{Query: i + 1}
		var rows [6]int
		var err error
		if row.PreViews, rows[0], err = timeIt(func() (*engine.Relation, error) {
			return answerFromViews(preRes.Best.Plans[i], preMats)
		}); err != nil {
			return Fig8Result{}, fmt.Errorf("pre views q%d: %w", i+1, err)
		}
		if row.PostViews, rows[1], err = timeIt(func() (*engine.Relation, error) {
			return answerFromViews(postRes.Best.Plans[i], postMats)
		}); err != nil {
			return Fig8Result{}, fmt.Errorf("post views q%d: %w", i+1, err)
		}
		if row.Saturated, rows[2], err = timeIt(func() (*engine.Relation, error) {
			return engine.Materialize(sat, q)
		}); err != nil {
			return Fig8Result{}, err
		}
		if row.Restrict, rows[3], err = timeIt(func() (*engine.Relation, error) {
			return engine.Materialize(restricted, q)
		}); err != nil {
			return Fig8Result{}, err
		}
		if row.RDF3X, rows[4], err = timeIt(func() (*engine.Relation, error) {
			return x3.Evaluate(q)
		}); err != nil {
			return Fig8Result{}, err
		}
		if row.Initial, rows[5], err = timeIt(func() (*engine.Relation, error) {
			return initMats[i], nil
		}); err != nil {
			return Fig8Result{}, err
		}
		row.Rows = rows[2]
		// Cross-check: every method must agree on the answer count.
		for m, n := range rows {
			if n != rows[2] {
				return Fig8Result{}, fmt.Errorf("q%d: method %d returned %d rows, triple table %d",
					i+1, m, n, rows[2])
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// restrictStore copies only the triples matching some atom of some query
// (variables as wildcards), sharing the dictionary.
func restrictStore(src *store.Store, queries []*cq.Query) *store.Store {
	dst := store.NewWithDict(src.Dict())
	for _, q := range queries {
		for _, a := range q.Atoms {
			src.Scan(stats.PatternOf(a), func(t store.Triple) bool {
				dst.Add(t)
				return true
			})
		}
	}
	return dst
}

// String renders the figure as a table (times in microseconds).
func (r Fig8Result) String() string {
	rows := make([][]string, 0, len(r.Rows))
	us := func(d time.Duration) string {
		return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
	}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("Q1.%d", row.Query),
			us(row.PreViews), us(row.PostViews), us(row.Saturated),
			us(row.Restrict), us(row.RDF3X), us(row.Initial),
			fmt_itoa(row.Rows),
		})
	}
	s := "Figure 8: execution times for queries with RDFS (µs)\n" +
		renderTable([]string{"query", "pre-reform views", "post-reform views",
			"saturated table", "restricted table", "rdf3x", "initial state", "rows"}, rows)
	s += fmt.Sprintf("\nmaterialization: post %.1fms / %d rows, pre %.1fms / %d rows, database %d rows\n",
		float64(r.MatTimePost)/float64(time.Millisecond), r.MatRowsPost,
		float64(r.MatTimePre)/float64(time.Millisecond), r.MatRowsPre, r.DatabaseRows)
	return s
}

// answerFromViews runs a rewriting over materialized views, serially, and
// collects its answers.
func answerFromViews(p algebra.Plan, mats map[algebra.ViewID]*engine.Relation) (*engine.Relation, error) {
	rs, err := engine.ExecuteStream(p, engine.MapResolver(mats), engine.ExecOptions{})
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}
