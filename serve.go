package rdfviews

// The serving tier: ad-hoc query answering with a canonicalization-keyed plan
// cache in front of reformulation, rewriting selection and physical planning.
//
// Every answering path pays the same fixed costs per call — reformulate under
// the reasoning mode, pick an access path, compile a physical plan — before
// touching a single triple. On the serving path those costs dominate point
// lookups by orders of magnitude, and they are a pure function of the query
// shape, the view set and the statistics snapshot. So they are computed once
// per shape and cached (internal/plancache):
//
//	query text ──parse──▶ CQ ──lift──▶ skeleton + binding
//	                             │
//	                             ▼ cache key: mode | canonical code | params | head
//	                   ┌─────────┴──────────┐
//	                   │ plan cache (LRU,   │  hit: bind constants, execute
//	                   │ singleflight)      │  miss: compile once, share
//	                   └─────────┬──────────┘
//	                             ▼
//	              view route (exact workload match)
//	              or store template (reformulated members, compiled plans)
//
// Constant lifting is what turns the cache into a prepared-query engine:
// liftable constants (cq.LiftConstants — sound with respect to the RDFS
// reformulation rules) are replaced by parameter sentinels, so every query of
// the shape `q(x) :- t(x, hasPainted, C)` shares one compiled artifact
// regardless of C, and execution just substitutes the caller's constants into
// the cached plan (engine.Instantiate — a shallow clone, not a re-plan).
//
// Cache keys are built from cq.CanonicalCode, which is invariant under
// variable renaming and atom order but compares heads as *sets*; the key
// appends the positional head token list so artifacts are shared only between
// queries whose output columns line up positionally, and a sorted list of the
// parameters' canonical variable numbers so a parameterized occurrence never
// collides with the same shape carrying a genuine variable.
//
// Validity is pull-based: each hit revalidates the artifact against the
// maintainer's publish generation (or the store epoch on the Database path)
// and recompiles when the base cardinality has drifted materially since
// compilation — cached plans stay execution-safe across snapshots by
// construction, drift only makes their join order stale.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/plancache"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/stats"
	"rdfviews/internal/store"
)

// sentinelBase is the first parameter-sentinel constant ID. Dictionary IDs
// are allocated densely from 1, so IDs at 2^56 and above can never collide
// with a real term; parameter rank r is encoded as sentinelBase + r.
const sentinelBase dict.ID = 1 << 56

// maxRoutesPerArtifact bounds the per-binding route memos kept on one cached
// artifact (whether a concrete binding hits an exact workload view match
// depends on the constants, so it is resolved per binding).
const maxRoutesPerArtifact = 128

// liftInfo is one query's admission ticket to the plan cache: the cache key,
// the parameterized skeleton, and this query's concrete parameter binding.
type liftInfo struct {
	key      string
	skeleton *cq.Query // lifted query with parameters as sentinel constants
	// binding holds the lifted constant values in rank order (rank = position
	// of the parameter's canonical variable number in sorted order — the
	// numbering shared by every query with this skeleton).
	binding []dict.ID
	occRank []int               // occurrence index (lift order) -> rank
	repr    map[dict.ID]dict.ID // sentinel -> this query's concrete value
	// headNames labels the result columns with the source query's own head
	// names (SPARQL variable names, Datalog head tokens) for wire protocols;
	// display metadata only, never part of the cache key.
	headNames []string
}

// liftForCache lifts q's parameterizable constants and derives the cache key:
//
//	tag | canonical skeleton code | p[param canonical numbers] | h[head tokens]
//
// Two queries get the same key exactly when their lifted skeletons are
// isomorphic, the same canonical positions are parameters, and their heads
// agree positionally under the canonical renaming — the precondition for
// executing one compiled artifact under either query's binding.
func liftForCache(q *cq.Query, typeID dict.ID, tag string) (*liftInfo, error) {
	lifted, params, vals := cq.LiftConstants(q, typeID)
	code, m := lifted.Canonicalize()

	nums := make([]int, len(params))
	ord := make([]int, len(params))
	for i, p := range params {
		c, ok := m[p]
		if !ok {
			return nil, fmt.Errorf("rdfviews: internal: lifted parameter %v absent from canonical map", p)
		}
		nums[i] = c.VarNum()
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return nums[ord[a]] < nums[ord[b]] })

	li := &liftInfo{
		binding: make([]dict.ID, len(params)),
		occRank: make([]int, len(params)),
		repr:    make(map[dict.ID]dict.ID, len(params)),
	}
	skel := lifted
	var key strings.Builder
	key.WriteString(tag)
	key.WriteByte('|')
	key.WriteString(code)
	key.WriteString("|p[")
	for r, occ := range ord {
		s := sentinelBase + dict.ID(r)
		skel = skel.Substitute(params[occ], cq.Const(s))
		li.binding[r] = vals[occ]
		li.occRank[occ] = r
		li.repr[s] = vals[occ]
		if r > 0 {
			key.WriteByte(',')
		}
		key.WriteString(strconv.Itoa(nums[occ]))
	}
	key.WriteString("]|h[")
	for j, h := range q.Head {
		if j > 0 {
			key.WriteByte(',')
		}
		key.WriteString(headToken(h, m))
	}
	key.WriteByte(']')
	li.skeleton = skel
	li.key = key.String()
	return li, nil
}

// withBinding returns the same cache admission under different parameter
// values (the prepared-query rebind).
func (li *liftInfo) withBinding(binding []dict.ID) *liftInfo {
	out := &liftInfo{
		key:       li.key,
		skeleton:  li.skeleton,
		occRank:   li.occRank,
		binding:   binding,
		repr:      make(map[dict.ID]dict.ID, len(binding)),
		headNames: li.headNames,
	}
	for r, v := range binding {
		out.repr[sentinelBase+dict.ID(r)] = v
	}
	return out
}

// headToken renders one head term under a canonical renaming: ?n for the
// canonical variable number, #id for a constant.
func headToken(t cq.Term, m map[cq.Term]cq.Term) string {
	if t.IsConst() {
		return "#" + strconv.FormatInt(int64(t.ConstID()), 10)
	}
	if c, ok := m[t]; ok {
		return "?" + strconv.Itoa(c.VarNum())
	}
	return "?" + strconv.Itoa(t.VarNum())
}

// bindingKey renders a rank-ordered binding vector for route memoization.
func bindingKey(b []dict.ID) string {
	var sb strings.Builder
	for i, v := range b {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(int64(v), 10))
	}
	return sb.String()
}

// applyConstSubst returns q with constants rewritten through sub (used to
// turn a sentinel skeleton back into the concrete query of a binding).
func applyConstSubst(q *cq.Query, sub map[dict.ID]dict.ID) *cq.Query {
	out := q.Clone()
	for ai := range out.Atoms {
		for pos := 0; pos < 3; pos++ {
			if t := out.Atoms[ai][pos]; t.IsConst() {
				if v, ok := sub[t.ConstID()]; ok {
					out.Atoms[ai][pos] = cq.Const(v)
				}
			}
		}
	}
	for i, h := range out.Head {
		if h.IsConst() {
			if v, ok := sub[h.ConstID()]; ok {
				out.Head[i] = cq.Const(v)
			}
		}
	}
	return out
}

// storeTemplate is the compiled store-path artifact: one physical plan per
// member of the (possibly reformulated) skeleton union. Execution
// (execStream, serve_stream.go) instantiates each member against the caller's
// snapshot and binding and takes the distinct union.
type storeTemplate struct {
	members []*engine.QueryPlan

	// bound memoizes the constant-substituted member clones per binding key:
	// substitution walks every compiled step spec, so repeated executions of
	// one binding — the prepared-query hot path — reuse the walk and pay only
	// a struct copy to pin the caller's reader. Bounded like the route memo;
	// bindings past the cap fall back to substituting per call.
	mu    sync.Mutex
	bound map[string][]*engine.QueryPlan
}

// compileStoreTemplate reformulates the skeleton when the mode calls for it
// and compiles a parameterized physical plan per member, join-ordered by the
// cardinalities of the triggering query's constants (repr).
func compileStoreTemplate(reader store.Reader, skel *cq.Query, repr map[dict.ID]dict.ID, schema *reason.Schema, reformulate bool, maxTerms int) (*storeTemplate, error) {
	members := []*cq.Query{skel}
	if reformulate {
		u, err := reason.Reformulate(skel, schema, maxTerms)
		if err != nil {
			return nil, err
		}
		members = u.Queries
	}
	t := &storeTemplate{members: make([]*engine.QueryPlan, 0, len(members))}
	for _, mq := range members {
		p, err := engine.PlanQueryParams(reader, mq, repr)
		if err != nil {
			return nil, err
		}
		t.members = append(t.members, p)
	}
	return t, nil
}

// boundMembers returns the member plans with the binding's constants
// substituted but no reader pinned, memoized per binding key. A query without
// parameters uses the compiled members directly.
func (t *storeTemplate) boundMembers(bkey string, repr map[dict.ID]dict.ID) []*engine.QueryPlan {
	if len(repr) == 0 {
		return t.members
	}
	t.mu.Lock()
	ms, ok := t.bound[bkey]
	if !ok {
		ms = make([]*engine.QueryPlan, len(t.members))
		for i, p := range t.members {
			ms[i] = p.Instantiate(nil, repr)
		}
		if t.bound == nil {
			t.bound = make(map[string][]*engine.QueryPlan)
		}
		if len(t.bound) < maxRoutesPerArtifact {
			t.bound[bkey] = ms
		}
	}
	t.mu.Unlock()
	return ms
}

// viewRoute records whether a concrete binding of a skeleton matches a
// workload query exactly (and can therefore be answered from the maintained
// rewriting) and how to line the rewriting's columns up with the incoming
// head.
type viewRoute struct {
	matched bool
	idx     int       // workload query / rewriting plan index
	cols    []cq.Term // rewriting columns in incoming head order
}

// serveArtifact is one plan-cache entry: the skeleton it was compiled from,
// the lazily compiled store template, per-binding view routes, and the
// validity snapshot taken at compile time.
type serveArtifact struct {
	skeleton *cq.Query

	// Validity. rows is the base cardinality at compile time; genSeen is the
	// last change-generation (maintainer publish generation, or store epoch on
	// the Database path) the artifact was validated against — a matching
	// generation skips the cardinality-drift check entirely. epochPin and
	// schemaLen pin exact snapshots where drift is not acceptable
	// (ReasoningSaturate's saturated copy; the schema under reformulation).
	rows      atomic.Int64
	genSeen   atomic.Uint64
	epochPin  uint64
	schemaLen int

	mu     sync.Mutex
	tmpl   *storeTemplate
	routes map[string]*viewRoute // binding key -> route; nil when no views exist

	// routable is false when no workload query shares the skeleton's atom
	// count and head arity: canonical-code equality needs both, so a mismatch
	// rules out a view route for every binding at once and the per-binding
	// match (a canonicalization per new binding) is skipped entirely.
	routable bool
}

// driftedFar reports whether the base cardinality has moved materially since
// compile time: more than 20% of the compile-time size, with a flat floor of
// 64 rows so small stores do not thrash the cache.
func (a *serveArtifact) driftedFar(rows int64) bool {
	base := a.rows.Load()
	drift := rows - base
	if drift < 0 {
		drift = -drift
	}
	lim := base / 5
	if lim < 64 {
		lim = 64
	}
	return drift > lim
}

// ---------------------------------------------------------------------------
// LiveViews serving surface

// Prepared is a parameterized query handle: the parse/lift/key work is done,
// the compiled artifact is warm, and each Answer or AnswerBound call costs a
// cache hit plus execution.
type Prepared struct {
	lv *LiveViews
	li *liftInfo
}

// parseServeQuery parses ad-hoc query text in either supported syntax:
// SPARQL when its first token is SELECT or PREFIX (case-insensitive), the
// paper's Datalog-like notation otherwise. Alongside the query it returns
// the source-level head column names (the SPARQL ?var names or the Datalog
// head tokens; positions without a name — head constants — fall back to
// c1..cN), which streaming answers carry to the wire protocol.
func parseServeQuery(d *dict.Dictionary, text string) (*cq.Query, []string, error) {
	t := strings.TrimSpace(text)
	if t == "" {
		return nil, nil, fmt.Errorf("rdfviews: empty query")
	}
	p := cq.NewParser(d)
	var (
		q   *cq.Query
		err error
	)
	if isSPARQL(t) {
		q, err = p.ParseSPARQL(t)
	} else {
		q, err = p.ParseQuery(t)
	}
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(q.Head))
	for i, h := range q.Head {
		if n := p.NameOf(h); n != "" {
			names[i] = n
		} else {
			names[i] = "c" + strconv.Itoa(i+1)
		}
	}
	return q, names, nil
}

// isSPARQL reports whether the (trimmed) query text opens with the keyword
// SELECT or PREFIX: the keyword, then whitespace, a ?variable or *. A Datalog
// head may be named anything — selected(X), prefixes(X) — so a bare prefix
// match is not enough.
func isSPARQL(t string) bool {
	const n = len("SELECT") // == len("PREFIX")
	if len(t) <= n || !(strings.EqualFold(t[:n], "SELECT") || strings.EqualFold(t[:n], "PREFIX")) {
		return false
	}
	return strings.ContainsRune(" \t\r\n?*", rune(t[n]))
}

// AnswerQuery answers one ad-hoc query (SPARQL or Datalog-like text) over
// the maintained deployment: queries matching a workload shape execute their
// maintained rewriting over the view extents (honoring the StaleReadPolicy),
// anything else runs on the base store under the recommendation's reasoning
// mode. Two cache layers amortize the serving path: a statement cache maps
// repeated query text straight to its lifted form (skipping parse and
// canonicalization), and the plan cache maps canonicalized shapes — same
// query, or same query modulo liftable constants — to compiled artifacts,
// skipping reformulation and planning.
func (lv *LiveViews) AnswerQuery(text string) ([][]string, error) {
	li, err := lv.liftedFor(text)
	if err != nil {
		return nil, err
	}
	return lv.answerLifted(li)
}

// Prepare parses and compiles an ad-hoc query once, returning a handle that
// answers it repeatedly — with the original constants (Answer) or with fresh
// parameter bindings (AnswerBound) — without re-parsing or re-planning.
func (lv *LiveViews) Prepare(text string) (*Prepared, error) {
	li, err := lv.liftedFor(text)
	if err != nil {
		return nil, err
	}
	// Warm the cache now so Prepare absorbs the compile and Answer is a hit.
	if _, err := lv.artifactFor(li); err != nil {
		return nil, err
	}
	return &Prepared{lv: lv, li: li}, nil
}

// liftedFor resolves query text to its lifted form through the statement
// cache: repeated text costs one lookup instead of parse + lift + a
// branch-and-bound canonicalization. Safe because parsing is deterministic
// and the dictionary is append-only — the same text always denotes the same
// query. liftInfos are immutable once published.
func (lv *LiveViews) liftedFor(text string) (*liftInfo, error) {
	if lv.cache == nil {
		return lv.parseAndLift(text)
	}
	v, _, err := lv.cache.Do("txt|"+text, nil, func() (any, error) {
		return lv.parseAndLift(text)
	})
	if err != nil {
		return nil, err
	}
	return v.(*liftInfo), nil
}

func (lv *LiveViews) parseAndLift(text string) (*liftInfo, error) {
	q, names, err := parseServeQuery(lv.m.Store().Dict(), text)
	if err != nil {
		return nil, err
	}
	li, err := liftForCache(q, lv.rec.schema.TypeID, "lv:"+string(lv.rec.mode))
	if err != nil {
		return nil, err
	}
	li.headNames = names
	return li, nil
}

// NumParams returns the number of lifted parameters (bindable positions).
func (p *Prepared) NumParams() int { return len(p.li.occRank) }

// Answer executes the prepared query with its original constants.
func (p *Prepared) Answer() ([][]string, error) {
	return p.lv.answerLifted(p.li)
}

// AnswerBound executes the prepared query with fresh constants substituted
// for its parameters, in the order the constants appear in the query text
// (body scanned atom by atom, subject before object). Arguments use the
// workload term syntax: <iri>, prefixed or bare IRIs, "literals".
func (p *Prepared) AnswerBound(args ...string) ([][]string, error) {
	if len(args) != len(p.li.occRank) {
		return nil, fmt.Errorf("rdfviews: prepared query takes %d parameters, got %d", len(p.li.occRank), len(args))
	}
	if len(args) == 0 {
		return p.Answer()
	}
	parser := cq.NewParser(p.lv.m.Store().Dict())
	binding := make([]dict.ID, len(p.li.binding))
	for i, arg := range args {
		t, err := parser.ParseTerm(arg)
		if err != nil {
			return nil, fmt.Errorf("rdfviews: parameter %d: %w", i+1, err)
		}
		if !t.IsConst() {
			return nil, fmt.Errorf("rdfviews: parameter %d (%q) must be a constant", i+1, arg)
		}
		binding[p.li.occRank[i]] = t.ConstID()
	}
	return p.lv.answerLifted(p.li.withBinding(binding))
}

// answerLifted is the common execution path behind AnswerQuery, Answer and
// AnswerBound: the streaming path (openLifted), materialized.
func (lv *LiveViews) answerLifted(li *liftInfo) ([][]string, error) {
	rs, err := lv.openLifted(context.Background(), li)
	if err != nil {
		return nil, err
	}
	rel, err := rs.Collect()
	if err != nil {
		return nil, err
	}
	return lv.rec.db.decodeRows(rel), nil
}

// artifactFor returns the cached artifact for the lifted query, compiling it
// under the cache's singleflight discipline on a miss. With caching disabled
// (MaintainOptions.PlanCache < 0) it compiles fresh every call — the
// benchmark oracle.
func (lv *LiveViews) artifactFor(li *liftInfo) (*serveArtifact, error) {
	if lv.cache == nil {
		return lv.compileServeArtifact(li)
	}
	v, _, err := lv.cache.Do(li.key, lv.artifactValid, func() (any, error) {
		return lv.compileServeArtifact(li)
	})
	if err != nil {
		return nil, err
	}
	return v.(*serveArtifact), nil
}

// artifactValid revalidates a cached artifact on each hit: an unchanged
// publish generation is proof nothing moved; otherwise the artifact survives
// only while the base cardinality has not drifted materially since compile
// time. Runs under the cache's shard lock — generation and length reads are
// a handful of atomic loads.
func (lv *LiveViews) artifactValid(v any) bool {
	a := v.(*serveArtifact)
	gen := lv.m.PublishGen()
	if a.genSeen.Load() == gen {
		return true
	}
	if a.driftedFar(int64(lv.m.Store().Len())) {
		return false
	}
	a.genSeen.Store(gen)
	return true
}

// compileServeArtifact does the full miss-path work for the triggering
// binding: snapshot the validity baseline, then resolve the route — which
// compiles the store template when no workload view matches — so the whole
// cost lands inside the cache's compile accounting.
func (lv *LiveViews) compileServeArtifact(li *liftInfo) (*serveArtifact, error) {
	a := &serveArtifact{
		skeleton: li.skeleton,
		routes:   make(map[string]*viewRoute),
		routable: lv.shapeRoutable(li.skeleton),
	}
	a.rows.Store(int64(lv.m.Store().Len()))
	a.genSeen.Store(lv.m.PublishGen())
	if _, _, err := lv.routeFor(a, li); err != nil {
		return nil, err
	}
	return a, nil
}

// routeFor resolves how this binding executes: an exact workload match runs
// the maintained rewriting, everything else the store template (compiled on
// first need). Routes are memoized per binding on the artifact, because the
// same skeleton matches the workload only under the constants the workload
// query carries.
func (lv *LiveViews) routeFor(a *serveArtifact, li *liftInfo) (*viewRoute, *storeTemplate, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := unroutable
	if a.routable {
		bkey := bindingKey(li.binding)
		var ok bool
		if r, ok = a.routes[bkey]; !ok {
			r = lv.matchRoute(applyConstSubst(a.skeleton, li.repr))
			if len(a.routes) < maxRoutesPerArtifact {
				a.routes[bkey] = r
			}
		}
	}
	if !r.matched && a.tmpl == nil {
		tmpl, err := compileStoreTemplate(lv.m.Store(), a.skeleton, li.repr,
			lv.rec.schema, lv.rec.mode == ReasoningPre, lv.rec.maxUnionTerms)
		if err != nil {
			return nil, nil, err
		}
		a.tmpl = tmpl
	}
	return r, a.tmpl, nil
}

// unroutable is the shared no-view-route result for skeletons whose shape
// rules out every workload match.
var unroutable = &viewRoute{}

// shapeRoutable reports whether some workload query could be isomorphic to an
// instance of the skeleton. Canonical codes agree only when atom count and
// head arity agree, and lifting never adds or removes atoms or head terms, so
// a mismatch here is binding-independent.
func (lv *LiveViews) shapeRoutable(skel *cq.Query) bool {
	for _, w := range lv.rec.workload.Queries {
		if len(w.Atoms) == len(skel.Atoms) && len(w.Head) == len(skel.Head) {
			return true
		}
	}
	return false
}

// matchRoute tests a concrete query against the workload index: a canonical
// code match means the query is isomorphic to a workload query modulo head
// column order, and the head tokens line its columns up with the rewriting's.
func (lv *LiveViews) matchRoute(conc *cq.Query) *viewRoute {
	lv.widxOnce.Do(lv.buildWorkloadIndex)
	code, m := conc.Canonicalize()
	k, ok := lv.widx[code]
	if !ok {
		return &viewRoute{}
	}
	w := lv.rec.workload.Queries[k]
	_, wm := w.Canonicalize()
	cols := make([]cq.Term, len(conc.Head))
	for j, h := range conc.Head {
		tok := headToken(h, m)
		found := false
		for _, wh := range w.Head {
			if headToken(wh, wm) == tok {
				cols[j] = wh
				found = true
				break
			}
		}
		if !found {
			return &viewRoute{}
		}
	}
	return &viewRoute{matched: true, idx: k, cols: cols}
}

// buildWorkloadIndex maps each workload query's canonical code to its index
// (first wins on duplicates — duplicate workload queries share answers).
func (lv *LiveViews) buildWorkloadIndex() {
	lv.widx = make(map[string]int, len(lv.rec.workload.Queries))
	for i, q := range lv.rec.workload.Queries {
		code := q.CanonicalCode()
		if _, dup := lv.widx[code]; !dup {
			lv.widx[code] = i
		}
	}
}

// sameCols reports positional equality of column label slices.
func sameCols(a, b []cq.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CacheStats returns the serving-tier plan cache counters (zero snapshot
// when caching is disabled).
func (lv *LiveViews) CacheStats() stats.CacheSnapshot {
	if lv.cache == nil {
		return stats.CacheSnapshot{}
	}
	return lv.cache.Counters().Snapshot()
}

// PruneStats reports the maintained store's shard-pruning ledger: cursor
// opens, shards those opens touched, and the unpruned fan-outs they were
// routed against — how much work placement routing saved on the serving and
// maintenance paths.
func (lv *LiveViews) PruneStats() store.PruneSnapshot {
	return lv.m.Store().PruneStats().Snapshot()
}

// InvalidatePlans drops every cached plan artifact (lazily: entries
// recompile on their next lookup). Useful after bulk statistics shifts the
// drift heuristic is too slow to notice.
func (lv *LiveViews) InvalidatePlans() {
	if lv.cache != nil {
		lv.cache.Invalidate()
	}
}

// ---------------------------------------------------------------------------
// Database serving surface

// dbServe returns the database's lazily created plan cache.
func (db *Database) dbServe() *plancache.Cache {
	db.serveOnce.Do(func() {
		db.serveCache = plancache.New(plancache.DefaultCapacity, nil)
	})
	return db.serveCache
}

// CacheStats returns the database's plan-cache counters.
func (db *Database) CacheStats() stats.CacheSnapshot {
	return db.dbServe().Counters().Snapshot()
}

// InvalidatePlans drops every plan cached by Answer and ExplainQuery.
func (db *Database) InvalidatePlans() { db.dbServe().Invalidate() }

// dbModeTag collapses reasoning modes onto their store-path execution
// strategy: post- and pre-reformulation answer ad-hoc queries identically
// (reformulate, evaluate the union on the original store), so they share
// cached artifacts.
func dbModeTag(mode Reasoning) (string, error) {
	switch mode {
	case ReasoningNone, "":
		return "none", nil
	case ReasoningSaturate:
		return "sat", nil
	case ReasoningPost, ReasoningPre:
		return "reform", nil
	}
	return "", fmt.Errorf("rdfviews: unknown reasoning mode %q", mode)
}

// answerCached evaluates q on the database under the reasoning mode through
// the plan cache; semantically identical to answerRelation (the uncached
// oracle the differential tests compare against).
func (db *Database) answerCached(q *cq.Query, mode Reasoning) (*engine.Relation, error) {
	a, li, reader, err := db.serveArtifactFor(q, mode)
	if err != nil {
		return nil, err
	}
	rs, err := a.tmpl.execStream(reader, bindingKey(li.binding), li.repr, engine.ExecOptions{})
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

// explainCached renders the physical plan Answer would execute for q under
// ReasoningNone, through the same cache — explaining a query warms the plan
// Answer will hit.
func (db *Database) explainCached(q *cq.Query) (string, error) {
	a, li, reader, err := db.serveArtifactFor(q, ReasoningNone)
	if err != nil {
		return "", err
	}
	return a.tmpl.members[0].Instantiate(reader, li.repr).Explain(), nil
}

// serveArtifactFor is the Database-path cache admission: lift, key, validate
// or compile, and return the artifact with the reader execution must use.
func (db *Database) serveArtifactFor(q *cq.Query, mode Reasoning) (*serveArtifact, *liftInfo, store.Reader, error) {
	tag, err := dbModeTag(mode)
	if err != nil {
		return nil, nil, nil, err
	}
	typeID, _ := db.st.Dict().LookupIRI(rdf.RDFType)
	li, err := liftForCache(q, typeID, "db:"+tag)
	if err != nil {
		return nil, nil, nil, err
	}

	epoch := db.st.Epoch()
	schemaLen := db.schema.Len()
	reader := store.Reader(db.st)
	if tag == "sat" {
		reader = db.saturatedFor(epoch, schemaLen)
	}

	valid := func(v any) bool {
		a := v.(*serveArtifact)
		if tag != "none" && a.schemaLen != schemaLen {
			return false
		}
		if tag == "sat" {
			// The template is planned against one saturated copy; pin it
			// exactly so execution and plan never straddle two copies.
			return a.epochPin == epoch
		}
		if a.genSeen.Load() == epoch {
			return true
		}
		if a.driftedFar(int64(db.st.Len())) {
			return false
		}
		a.genSeen.Store(epoch)
		return true
	}
	compile := func() (any, error) {
		a := &serveArtifact{skeleton: li.skeleton, epochPin: epoch, schemaLen: schemaLen}
		a.rows.Store(int64(db.st.Len()))
		a.genSeen.Store(epoch)
		var schema *reason.Schema
		if tag == "reform" {
			schema = db.reasonSchema()
		}
		tmpl, err := compileStoreTemplate(reader, li.skeleton, li.repr, schema, tag == "reform", 0)
		if err != nil {
			return nil, err
		}
		a.tmpl = tmpl
		return a, nil
	}

	v, _, err := db.dbServe().Do(li.key, valid, compile)
	if err != nil {
		return nil, nil, nil, err
	}
	return v.(*serveArtifact), li, reader, nil
}
