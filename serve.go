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
//	              or store template (one plan per rule-5/6 member, union leaves)
//
// Database and LiveViews share this path: both embed a front — the cache, and
// on a LiveViews the workload its maintained rewritings answer — and differ
// only in the version they hand it per call (version): the Database its store
// epoch, schema size and the reader of the reasoning mode, a LiveViews its
// maintained store and publish generation.
//
// Constant lifting is what turns the cache into a prepared-query engine:
// liftable constants (cq.LiftConstants — sound with respect to the RDFS
// reformulation rules) are replaced by parameter sentinels, so every query of
// the shape `q(x) :- t(x, hasPainted, C)` shares one compiled artifact
// regardless of C, and execution just substitutes the caller's constants into
// the cached plan (engine.Instantiate — a shallow clone, not a re-plan).
//
// A cache key comes from one set-mode canonical labeling of the skeleton
// (cq.Query.Label): its code, invariant under variable renaming and atom
// order but comparing heads as *sets*, then — from the same labeling's
// numbering — a sorted list of the parameters' canonical numbers, so a
// parameterized occurrence never collides with the same shape carrying a
// genuine variable, and the positional head tokens, so artifacts are shared
// only between queries whose output columns line up positionally.
//
// Validity is pull-based (serveArtifact.valid): each hit revalidates the
// artifact against the version's change generation and recompiles when the
// base cardinality has drifted materially since compilation — cached plans
// stay execution-safe across snapshots by construction, drift only makes
// their join order stale.

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

// maxRoutesPerArtifact bounds the per-binding route memo kept on one cached
// artifact (whether a concrete binding hits an exact workload view match
// depends on the constants, so it is resolved per binding).
const maxRoutesPerArtifact = 128

// liftInfo is one query's admission ticket to the plan cache: the cache key,
// the parameterized skeleton, and this query's concrete parameter binding.
type liftInfo struct {
	key      string
	skeleton *cq.Query // lifted query with parameters as sentinel constants
	// bkey renders the binding — the lifted constant values in rank order
	// (rank = position of the parameter's canonical variable number in sorted
	// order, the numbering shared by every query with this skeleton) — for
	// the per-binding memos.
	bkey    string
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
// executing one compiled artifact under either query's binding. Every part
// comes from one labeling of the skeleton. Objects of atoms whose predicate
// is typeID (rdf:type) never lift: reformulation matches on them.
func liftForCache(q *cq.Query, typeID dict.ID, tag string) *liftInfo {
	lifted, params, vals := cq.LiftConstants(q, typeID)
	lab := lifted.Label(cq.SetHead)

	nums := make([]int, len(params))
	ord := make([]int, len(params))
	for i, p := range params {
		nums[i] = lab.Num(p) // a parameter sits in the body, so it is numbered
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return nums[ord[a]] < nums[ord[b]] })

	binding := make([]dict.ID, len(params))
	li := &liftInfo{occRank: make([]int, len(params))}
	skel := lifted
	key := make([]byte, 0, len(tag)+len(lab.Code)+8+4*(len(params)+len(q.Head)))
	key = append(append(append(key, tag...), '|'), lab.Code...)
	key = append(key, "|p["...)
	for r, occ := range ord {
		skel = skel.Substitute(params[occ], cq.Const(sentinelBase+dict.ID(r)))
		binding[r] = vals[occ]
		li.occRank[occ] = r
		if r > 0 {
			key = append(key, ',')
		}
		key = strconv.AppendInt(key, int64(nums[occ]), 10)
	}
	key = append(key, "]|h["...)
	for j, h := range q.Head {
		if j > 0 {
			key = append(key, ',')
		}
		key = lab.AppendToken(key, h)
	}
	li.skeleton = skel
	li.key = string(append(key, ']'))
	li.bind(binding)
	return li
}

// withBinding returns the same cache admission under different parameter
// values (the prepared-query rebind).
func (li *liftInfo) withBinding(binding []dict.ID) *liftInfo {
	out := &liftInfo{key: li.key, skeleton: li.skeleton, occRank: li.occRank, headNames: li.headNames}
	out.bind(binding)
	return out
}

// bind sets what is derived from the rank-ordered parameter values.
func (li *liftInfo) bind(binding []dict.ID) {
	li.bkey = bindingKey(binding)
	li.repr = make(map[dict.ID]dict.ID, len(binding))
	for r, v := range binding {
		li.repr[sentinelBase+dict.ID(r)] = v
	}
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

// compileStoreTemplate compiles the store-path template: one physical plan
// per member of the skeleton's closure under reformulation rules 5–6
// (reason.ReformulateAtoms, when schema is given) — a single plan unless the
// skeleton has a class or property variable — whose atoms are union leaves
// of their rule 1–4 alternatives, join-ordered by the cardinalities of the
// triggering query's constants (repr).
func compileStoreTemplate(reader store.Reader, skel *cq.Query, repr map[dict.ID]dict.ID, schema *reason.Schema, maxTerms int) ([]*engine.QueryPlan, error) {
	members := []*cq.Query{skel}
	var alts [][][]cq.Atom
	if schema != nil {
		var err error
		if members, alts, err = reason.ReformulateAtoms(skel, schema, maxTerms); err != nil {
			return nil, err
		}
	}
	plans := make([]*engine.QueryPlan, len(members))
	for i, mq := range members {
		var ma [][]cq.Atom
		if alts != nil {
			ma = alts[i]
		}
		p, err := engine.PlanQueryAlts(reader, mq, ma, repr)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	return plans, nil
}

// boundRoute is what one binding of a skeleton runs: the maintained
// rewriting of the workload query it matches exactly (idx, with cols lining
// the rewriting's columns up with the incoming head), or else the store
// template's members with the binding's constants substituted but no reader
// pinned. Substitution walks every compiled step spec, so repeated
// executions of one binding — the prepared-query hot path — pay only a
// struct copy per member to pin the caller's reader (execStream).
type boundRoute struct {
	matched bool
	idx     int       // workload query / rewriting plan index
	cols    []cq.Term // rewriting columns in incoming head order
	members []*engine.QueryPlan
}

// serveArtifact is one plan-cache entry: the skeleton it was compiled from,
// the lazily compiled store template, what each binding runs, and the
// validity snapshot taken at compile time.
type serveArtifact struct {
	skeleton *cq.Query

	// Validity (valid). rows is the base cardinality at compile time;
	// genSeen the last change generation the artifact was validated against;
	// schemaLen the size of the schema it reasons with.
	rows      atomic.Int64
	genSeen   atomic.Uint64
	schemaLen int

	// routable is false when no workload query shares the skeleton's atom
	// count and head arity: canonical-code equality needs both, so that
	// rules out a view route for every binding at once and the per-binding
	// match (a canonicalization per new binding) is skipped entirely. Always
	// false on a Database, which has no workload.
	routable bool

	mu    sync.Mutex
	tmpl  []*engine.QueryPlan    // the store template, compiled on first need
	bound map[string]*boundRoute // each binding's route, by binding key
}

// valid is the one validity rule of the plan cache, run on every hit under
// the cache's shard lock: an artifact serves only the schema size it was
// compiled at; a change generation it has seen is proof nothing moved; past
// that it survives — recording the generation — while the base cardinality
// has not drifted far. The base cardinality is read only when the
// generation has moved.
func (a *serveArtifact) valid(v *version) bool {
	if a.schemaLen != v.schemaLen {
		return false
	}
	if a.genSeen.Load() == v.gen {
		return true
	}
	if a.driftedFar(int64(v.reader.Len())) {
		return false
	}
	a.genSeen.Store(v.gen)
	return true
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

// version is one answering surface's data at a call, as the plan cache sees
// it: what keys, validates and compiles an artifact.
type version struct {
	// tag starts every artifact key: the surface and the mode's execution
	// strategy ("lv:pre", "db:reform"). stmt starts every statement key:
	// "txt|" on a LiveViews, whose cache serves one mode, "txt|<tag>|" on a
	// Database, whose cache serves them all.
	tag, stmt string
	// reader is what templates are planned against; its Len is the drift
	// baseline.
	reader store.Reader
	// gen is the change generation: the store epoch, or a LiveViews' publish
	// generation.
	gen uint64
	// schemaLen is the size of the schema the mode reasons with; 0 when it
	// reasons with none, or with one fixed for the surface's lifetime.
	schemaLen int
	// schema, when set, reformulates every template, maxTerms bounding its
	// rule-5/6 members and the alternatives of any one atom.
	schema   *reason.Schema
	maxTerms int
	// typeID is rdf:type's dictionary ID, which lifting leaves alone.
	typeID dict.ID
}

// front is the serving tier both Database and LiveViews embed: one plan
// cache holding statements and compiled artifacts under one ledger, and the
// workload whose maintained rewritings answer exact matches (none on a
// Database).
type front struct {
	cache    *plancache.Cache // nil only when a test clears it: compile every call
	workload []*cq.Query
	widxOnce sync.Once
	widx     map[string]workloadEntry // canonical code -> first workload query with it
}

// do is the one lookup into the plan cache, for statements and artifacts
// alike.
func (f *front) do(key string, valid func(any) bool, compile func() (any, error)) (any, error) {
	if f.cache == nil {
		return compile()
	}
	v, _, err := f.cache.Do(key, valid, compile)
	return v, err
}

// lifted resolves query text to its lifted form at v through the statement
// cache: repeated text costs one lookup instead of parse + lift + a
// branch-and-bound canonicalization. Safe because parsing is deterministic
// and the dictionary is append-only — the same text under the same mode
// always denotes the same query. liftInfos are immutable once published.
func (f *front) lifted(d *dict.Dictionary, v *version, text string) (*liftInfo, error) {
	x, err := f.do(v.stmt+text, nil, func() (any, error) {
		q, names, err := parseServeQuery(d, text)
		if err != nil {
			return nil, err
		}
		li := liftForCache(q, v.typeID, v.tag)
		li.headNames = names
		return li, nil
	})
	if err != nil {
		return nil, err
	}
	return x.(*liftInfo), nil
}

// plan is the plan-cache admission of every ad-hoc answer: it fetches li's
// artifact — compiling it at v on a miss or when it fails validity at v —
// and resolves what li's binding runs there.
func (f *front) plan(li *liftInfo, v *version) (*boundRoute, error) {
	x, err := f.do(li.key,
		func(x any) bool { return x.(*serveArtifact).valid(v) },
		func() (any, error) { return f.compile(li, v) })
	if err != nil {
		return nil, err
	}
	return f.route(x.(*serveArtifact), li, v)
}

// compile does the full miss-path work for the triggering binding: snapshot
// the validity baseline, then resolve the route — which compiles the store
// template when no workload view matches — so the whole cost lands inside the
// cache's compile accounting.
func (f *front) compile(li *liftInfo, v *version) (*serveArtifact, error) {
	a := &serveArtifact{skeleton: li.skeleton, schemaLen: v.schemaLen,
		routable: f.shapeRoutable(li.skeleton), bound: make(map[string]*boundRoute)}
	a.rows.Store(int64(v.reader.Len()))
	a.genSeen.Store(v.gen)
	if _, err := f.route(a, li, v); err != nil {
		return nil, err
	}
	return a, nil
}

// route resolves what this binding runs: an exact workload match runs the
// maintained rewriting, everything else the store template (compiled on
// first need) under the binding's constants. Routes are memoized per binding
// on the artifact, at most maxRoutesPerArtifact of them, because the same
// skeleton matches the workload only under the constants the workload query
// carries; bindings past the cap resolve per call.
func (f *front) route(a *serveArtifact, li *liftInfo, v *version) (*boundRoute, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r, ok := a.bound[li.bkey]; ok {
		return r, nil
	}
	r := &boundRoute{}
	if a.routable {
		r = f.matchRoute(applyConstSubst(a.skeleton, li.repr))
	}
	if !r.matched {
		if a.tmpl == nil {
			tmpl, err := compileStoreTemplate(v.reader, a.skeleton, li.repr, v.schema, v.maxTerms)
			if err != nil {
				return nil, err
			}
			a.tmpl = tmpl
		}
		r.members = make([]*engine.QueryPlan, len(a.tmpl))
		for i, p := range a.tmpl {
			r.members[i] = p.Instantiate(nil, li.repr)
		}
	}
	if len(a.bound) < maxRoutesPerArtifact {
		a.bound[li.bkey] = r
	}
	return r, nil
}

// shapeRoutable reports whether some workload query could be isomorphic to an
// instance of the skeleton. Canonical codes agree only when atom count and
// head arity agree, and lifting never adds or removes atoms or head terms, so
// a mismatch here is binding-independent.
func (f *front) shapeRoutable(skel *cq.Query) bool {
	for _, w := range f.workload {
		if len(w.Atoms) == len(skel.Atoms) && len(w.Head) == len(skel.Head) {
			return true
		}
	}
	return false
}

// matchRoute tests a concrete query against the workload index: a canonical
// code match means the query is isomorphic to a workload query modulo head
// column order, and the two labelings' numberings line its columns up with
// the rewriting's — a head variable numbered n is the workload head variable
// numbered n, a head constant is itself.
func (f *front) matchRoute(conc *cq.Query) *boundRoute {
	f.widxOnce.Do(f.buildWorkloadIndex)
	lab := conc.Label(cq.SetHead)
	w, ok := f.widx[lab.Code]
	if !ok {
		return &boundRoute{}
	}
	cols := make([]cq.Term, len(conc.Head))
	for j, h := range conc.Head {
		if h.IsConst() {
			cols[j] = h
			continue
		}
		n := lab.Num(h)
		if n == 0 || n >= len(w.cols) || w.cols[n] == 0 {
			return &boundRoute{}
		}
		cols[j] = w.cols[n]
	}
	return &boundRoute{matched: true, idx: w.idx, cols: cols}
}

// workloadEntry is one workload query in the route index: its index, and its
// head variables by the canonical number its labeling gives them (cols[n],
// zero where n numbers no head variable).
type workloadEntry struct {
	idx  int
	cols []cq.Term
}

// buildWorkloadIndex labels each workload query once and maps its canonical
// code to its entry (first wins on duplicates — duplicate workload queries
// share answers).
func (f *front) buildWorkloadIndex() {
	f.widx = make(map[string]workloadEntry, len(f.workload))
	for i, q := range f.workload {
		lab := q.Label(cq.SetHead)
		if _, dup := f.widx[lab.Code]; dup {
			continue
		}
		e := workloadEntry{idx: i, cols: make([]cq.Term, len(lab.Vars)+1)}
		for _, h := range q.Head {
			if h.IsVar() {
				e.cols[lab.Num(h)] = h
			}
		}
		f.widx[lab.Code] = e
	}
}

// CacheStats returns the plan cache's counters: statement and artifact
// lookups, evictions, invalidations, compile time paid and saved.
func (f *front) CacheStats() stats.CacheSnapshot { return f.cache.Counters().Snapshot() }

// InvalidatePlans drops every cached plan artifact (lazily: entries
// recompile on their next lookup). Useful after bulk statistics shifts the
// drift heuristic is too slow to notice.
func (f *front) InvalidatePlans() { f.cache.Invalidate() }

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

// ---------------------------------------------------------------------------
// LiveViews serving surface

// Prepared is a parameterized query handle: the parse/lift/key work is done,
// the compiled artifact is warm, and each Answer or AnswerBound call costs a
// cache hit plus execution.
type Prepared struct {
	lv *LiveViews
	li *liftInfo
}

// now is the maintained deployment at the publish generation this call
// reads.
func (lv *LiveViews) now() version {
	v := lv.at
	v.gen = lv.m.PublishGen()
	return v
}

// liftedFor resolves query text through the statement cache.
func (lv *LiveViews) liftedFor(text string) (*liftInfo, error) {
	return lv.lifted(lv.m.Store().Dict(), &lv.at, text)
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
	v := lv.now()
	if _, err := lv.plan(li, &v); err != nil {
		return nil, err
	}
	return &Prepared{lv: lv, li: li}, nil
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
	binding := make([]dict.ID, len(p.li.occRank))
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
// AnswerBound: the streaming path (openLifted), collected.
func (lv *LiveViews) answerLifted(li *liftInfo) ([][]string, error) {
	rs, err := lv.openLifted(context.Background(), li)
	if err != nil {
		return nil, err
	}
	return newAnswerStream(rs, li.headNames, lv.m.Store().Dict()).collect()
}

// PruneStats reports the maintained store's shard-pruning ledger: cursor
// opens, shards those opens touched, and the unpruned fan-outs they were
// routed against — how much work placement routing saved on the serving and
// maintenance paths.
func (lv *LiveViews) PruneStats() store.PruneSnapshot {
	return lv.m.Store().PruneStats().Snapshot()
}

// ---------------------------------------------------------------------------
// Database serving surface

// at is the database under the reasoning mode at the version this call
// reads. Saturation, post- and pre-reformulation answer ad-hoc queries
// identically (reformulate with the pinned schema, evaluate the union on the
// explicit store: Theorem 4.2), so they share cache entries. rdf:type is
// looked up last: deriving the schema encodes it, and only the modes that
// derive one need it.
func (db *Database) at(mode Reasoning) (version, error) {
	v := version{reader: db.st, gen: db.st.Epoch()}
	switch mode {
	case ReasoningNone, "":
		v.tag, v.stmt = "db:none", "txt|db:none|"
	case ReasoningSaturate, ReasoningPost, ReasoningPre:
		v.tag, v.stmt = "db:reform", "txt|db:reform|"
		v.schemaLen, v.schema = db.schema.Len(), db.reasonSchema()
	default:
		return v, fmt.Errorf("rdfviews: unknown reasoning mode %q", mode)
	}
	v.typeID, _ = db.st.Dict().LookupIRI(rdf.RDFType)
	return v, nil
}

// lift is the Database admission of a parsed query under the mode.
func (db *Database) lift(q *cq.Query, mode Reasoning) (*liftInfo, version, error) {
	v, err := db.at(mode)
	if err != nil {
		return nil, v, err
	}
	return liftForCache(q, v.typeID, v.tag), v, nil
}

// open is the one execution path of the Database surface: plan li at v and
// stream its template over v's reader.
func (db *Database) open(ctx context.Context, li *liftInfo, v *version) (*AnswerStream, error) {
	r, err := db.plan(li, v)
	if err != nil {
		return nil, err
	}
	rs, err := r.execStream(v.reader, engine.ExecOptions{Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return newAnswerStream(rs, li.headNames, db.st.Dict()), nil
}
