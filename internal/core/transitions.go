package core

import (
	"fmt"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
)

// Ctx allocates the fresh view IDs and fresh variables transitions need, and
// interns the canonical codes of the views it builds (NewView). One Ctx must
// be shared across a whole search run, and by no other.
type Ctx struct {
	nextViewID algebra.ViewID
	nextVar    int
	// codes and bodies number the distinct set-mode codes and body codes of
	// the views built so far.
	codes, bodies map[string]uint32
	// bodyCount is enumVF's scratch: a counter per body ID, zero between
	// calls.
	bodyCount []int32
	// memo keeps the first build of each SC, JC and VB edge of the search
	// (see newViews), and memoLog its keys in the order they were built;
	// Search drops both when it returns.
	memo    map[edge]built
	memoLog []edge
}

// memoMark is a point in a search: the next view ID and the length of the
// memo's log.
type memoMark struct {
	id  algebra.ViewID
	log int
}

func (c *Ctx) mark() memoMark { return memoMark{c.nextViewID, len(c.memoLog)} }

// forget drops the memo entries of the views made since m. A view ID is
// given once, to a view of the state its transition derives, so only that
// state and the states derived from it hold the view: once the search has
// left them all, no transition can hit those entries again.
func (c *Ctx) forget(m memoMark) {
	keep := c.memoLog[:m.log]
	for _, e := range c.memoLog[m.log:] {
		if e.view >= m.id {
			delete(c.memo, e)
		} else {
			keep = append(keep, e)
		}
	}
	c.memoLog = keep
}

// edge names a Selection Cut or Join Cut at (a, b) = (atom, pos) of a view,
// or a View Break of it along the covers (a, b) = (mask1, mask2).
type edge struct {
	view algebra.ViewID
	kind Stage
	a, b uint32
}

// built is the first build of an edge: its new views, in the order they were
// made, and the fresh variable they use (zero for a View Break).
type built struct {
	views []*View
	fresh cq.Term
}

// newViews returns the new views of edge e, which use the fresh variable x
// (zero for a View Break). The first call builds them with build; a later
// call takes the first build's views under fresh IDs, allocated in the same
// order, with its fresh variable renamed to x. That is what build would
// give: a transition's views depend on the view and the edge alone, a
// canonical code does not change under renaming, and minimization depends on
// atom order only. So a later call copies codes, interned IDs and stop
// flags, and labels, minimizes and splits nothing.
func (c *Ctx) newViews(e edge, x cq.Term, build func() []*View) []*View {
	if b, ok := c.memo[e]; ok {
		views := make([]*View, len(b.views))
		for i, t := range b.views {
			v := *t // the View Break pairs too: they depend on the body's shape alone
			v.ID = c.nextViewID
			c.nextViewID++
			if x != b.fresh {
				v.Q = t.Q.RenameVars(map[cq.Term]cq.Term{b.fresh: x})
			}
			views[i] = &v
		}
		return views
	}
	views := build()
	if views != nil {
		if c.memo == nil {
			c.memo = map[edge]built{}
		}
		c.memo[e] = built{views: views, fresh: x}
		c.memoLog = append(c.memoLog, e)
	}
	return views
}

// NewCtx returns a context whose fresh variables start above maxVar.
func NewCtx(maxVar int) *Ctx {
	return &Ctx{nextViewID: 1, nextVar: maxVar, codes: map[string]uint32{}, bodies: map[string]uint32{}}
}

// FreshVar allocates a variable unused anywhere in the search.
func (c *Ctx) FreshVar() cq.Term {
	c.nextVar++
	return cq.Var(c.nextVar)
}

// finishView minimizes a freshly built view body (Definition 2.1 keeps views
// minimal) while preserving its head, and refuses results that would contain
// a Cartesian product (views with products are excluded from the space,
// Section 3.1).
func finishView(q *cq.Query) *cq.Query {
	m := q.Minimize()
	if !m.IsConnected() {
		// Extremely rare: the core is disconnected. Keep the unminimized,
		// connected body — it denotes the same relation.
		return q
	}
	return m
}

// headVarsOnly filters the variables out of a head term list, preserving
// order and deduplicating.
func headVarsOnly(head []cq.Term) []cq.Term {
	var out []cq.Term
	seen := make(map[cq.Term]struct{}, len(head))
	for _, t := range head {
		if !t.IsVar() {
			continue
		}
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// applySC performs a Selection Cut (Definition 3.3) on the selection edge at
// (atom, pos) of view vid: the constant is replaced by a fresh head variable
// X, and every occurrence of vid in the rewritings becomes
// π_head(v)(σ_{X=c}(v′)). Returns nil when the edge does not exist.
func (c *Ctx) applySC(s *State, vid algebra.ViewID, atom, pos int) *State {
	v := s.View(vid)
	if v == nil || atom >= len(v.Q.Atoms) {
		return nil
	}
	con := v.Q.Atoms[atom][pos]
	if !con.IsConst() {
		return nil
	}
	x := c.FreshVar()
	nv := c.newViews(edge{vid, StageSC, uint32(atom), uint32(pos)}, x, func() []*View {
		nq := v.Q.Clone()
		nq.Atoms[atom][pos] = x
		nq.Head = append(nq.Head, x)
		return []*View{c.NewView(nq)}
	})[0]

	repl := algebra.NewProject(
		algebra.NewSelect(
			algebra.NewScan(nv.ID, nv.Q.Head),
			algebra.Cond{Left: x, Right: con},
		),
		v.Q.Head,
	)
	return s.derive([]algebra.ViewID{vid}, []*View{nv}, []algebra.Plan{repl}, StageSC)
}

// applyJC performs a Join Cut (Definition 3.4): the occurrence of variable x
// at (atom, pos) of view vid is replaced by a fresh variable x′. If the view
// graph stays connected, the view is replaced by v′ with both x and x′
// exported and occurrences rewritten to π_head(v)(σ_{x=x′}(v′)); if it splits
// in two components, the view is replaced by v′1 and v′2 joined on x = x′.
// Returns nil when the cut is not applicable.
func (c *Ctx) applyJC(s *State, vid algebra.ViewID, x cq.Term, atom, pos int) *State {
	v := s.View(vid)
	if v == nil || !x.IsVar() || atom >= len(v.Q.Atoms) {
		return nil
	}
	if v.Q.Atoms[atom][pos] != x {
		return nil
	}
	// x must occur at least twice for a join edge to exist.
	occCount := 0
	for _, a := range v.Q.Atoms {
		for p := 0; p < 3; p++ {
			if a[p] == x {
				occCount++
			}
		}
	}
	if occCount < 2 {
		return nil
	}
	xp := c.FreshVar()
	views := c.newViews(edge{vid, StageJC, uint32(atom), uint32(pos)}, xp, func() []*View {
		nq := v.Q.Clone()
		nq.Atoms[atom][pos] = xp
		if nq.IsConnected() {
			head := append([]cq.Term(nil), v.Q.Head...)
			if !termIn(head, x) {
				head = append(head, x)
			}
			head = append(head, xp)
			return []*View{c.NewView(&cq.Query{Head: head, Atoms: nq.Atoms})}
		}
		comps := nq.ConnectedComponents()
		if len(comps) != 2 {
			// Cannot happen (see the analysis in transitions_test.go), but guard.
			return nil
		}
		var masks [2]uint32
		for ci, comp := range comps {
			for _, ai := range comp {
				masks[ci] |= 1 << uint(ai)
			}
		}
		views := make([]*View, 2)
		for ci, mask := range masks {
			vars := maskVars(nq, mask)
			var head []cq.Term
			for _, t := range headVarsOnly(v.Q.Head) {
				if _, ok := vars[t]; ok {
					head = append(head, t)
				}
			}
			// The join variable of e becomes a head variable in each component.
			for _, jv := range []cq.Term{x, xp} {
				if _, ok := vars[jv]; ok && !termIn(head, jv) {
					head = append(head, jv)
				}
			}
			q := finishView(subQuery(nq, mask, head))
			views[ci] = c.NewView(q)
		}
		return views
	})
	if views == nil {
		return nil
	}
	var repl algebra.Plan
	if len(views) == 1 {
		nv := views[0]
		repl = algebra.NewProject(
			algebra.NewSelect(
				algebra.NewScan(nv.ID, nv.Q.Head),
				algebra.Cond{Left: x, Right: xp},
			),
			v.Q.Head,
		)
	} else {
		// Place the component exporting x on the left of ⋈ x=x′.
		left, right := views[0], views[1]
		if !termIn(left.Q.Head, x) {
			left, right = right, left
		}
		repl = algebra.NewProject(
			algebra.NewJoin(
				algebra.NewScan(left.ID, left.Q.Head),
				algebra.NewScan(right.ID, right.Q.Head),
				algebra.Cond{Left: x, Right: xp},
			),
			v.Q.Head,
		)
	}
	return s.derive([]algebra.ViewID{vid}, views, []algebra.Plan{repl}, StageJC)
}

// applyVB performs a View Break (Definition 3.2) of view vid along the two
// node covers mask1, mask2 (bitmasks over body atoms): both induced
// subgraphs must be connected, cover all atoms, and neither may contain the
// other. The view is replaced by v1 and v2, and occurrences become
// π_head(v)(v1 ⋈ v2) — the natural join over the variables the two parts
// share (which includes all variables of shared atoms, per the definition,
// and any cross-part join variables, required for the rewriting to be
// equivalent).
func (c *Ctx) applyVB(s *State, vid algebra.ViewID, mask1, mask2 uint32) *State {
	v := s.View(vid)
	if v == nil {
		return nil
	}
	n := len(v.Q.Atoms)
	if n <= 2 || n > 32 {
		return nil
	}
	full := uint32(1)<<uint(n) - 1
	if mask1|mask2 != full || mask1&^mask2 == 0 || mask2&^mask1 == 0 {
		return nil
	}
	parts := c.newViews(edge{vid, StageVB, mask1, mask2}, 0, func() []*View {
		adj := atomAdjacency(v.Q)
		if !maskConnected(adj, mask1) || !maskConnected(adj, mask2) {
			return nil
		}
		vars1 := maskVars(v.Q, mask1)
		vars2 := maskVars(v.Q, mask2)
		headVars := headVarsOnly(v.Q.Head)

		buildPart := func(mask uint32, own, other map[cq.Term]struct{}) *View {
			var head []cq.Term
			for _, t := range headVars {
				if _, ok := own[t]; ok {
					head = append(head, t)
				}
			}
			for t := range own {
				if _, shared := other[t]; shared && !termIn(head, t) {
					head = append(head, t)
				}
			}
			sortTailVars(head, len(headVarsInPart(headVars, own)))
			q := finishView(subQuery(v.Q, mask, head))
			return c.NewView(q)
		}
		return []*View{buildPart(mask1, vars1, vars2), buildPart(mask2, vars2, vars1)}
	})
	if parts == nil {
		return nil
	}
	v1, v2 := parts[0], parts[1]
	repl := algebra.NewProject(
		algebra.NewJoin(
			algebra.NewScan(v1.ID, v1.Q.Head),
			algebra.NewScan(v2.ID, v2.Q.Head),
		),
		v.Q.Head,
	)
	return s.derive([]algebra.ViewID{vid}, parts, []algebra.Plan{repl}, StageVB)
}

// applyVF performs a View Fusion (Definition 3.5) of views id1 and id2,
// whose bodies must be equivalent up to variable renaming. The fused view v3
// has v1's body and head(v1) ∪ head(v2)⟨2→1⟩; occurrences of v1 become
// π_head(v1)(v3) and occurrences of v2 become π_head(v2)(v3⟨3→2⟩).
// Returns nil when the bodies are not isomorphic.
func (c *Ctx) applyVF(s *State, id1, id2 algebra.ViewID) *State {
	if id1 == id2 {
		return nil
	}
	v1, v2 := s.View(id1), s.View(id2)
	if v1 == nil || v2 == nil {
		return nil
	}
	if v1.bodyID != v2.bodyID {
		return nil
	}
	iso := cq.BodyIsomorphism(v1.Q, v2.Q) // v1 vars → v2 vars
	if iso == nil {
		return nil
	}
	inv := make(map[cq.Term]cq.Term, len(iso))
	for from, to := range iso {
		inv[to] = from
	}
	// head(v3) = head(v1) ∪ head(v2)⟨2→1⟩, deduplicated.
	head3 := append([]cq.Term(nil), v1.Q.Head...)
	for _, t := range v2.Q.Head {
		mapped := t
		if t.IsVar() {
			m, ok := inv[t]
			if !ok {
				return nil // head var outside body: invalid view
			}
			mapped = m
		}
		if !termIn(head3, mapped) {
			head3 = append(head3, mapped)
		}
	}
	q3 := &cq.Query{Head: head3, Atoms: append([]cq.Atom(nil), v1.Q.Atoms...)}
	v3 := c.NewView(q3)

	// Occurrences of v1: π_head(v1)(v3) in v1's namespace.
	repl1 := algebra.NewProject(algebra.NewScan(v3.ID, head3), v1.Q.Head)
	// Occurrences of v2: π_head(v2)(v3⟨3→2⟩): relabel v3's columns through iso.
	repl2 := algebra.NewProject(algebra.ScanRenamed(v3.ID, head3, iso), v2.Q.Head)
	return s.derive([]algebra.ViewID{id1, id2}, []*View{v3}, []algebra.Plan{repl1, repl2}, StageVF)
}

func termIn(ts []cq.Term, t cq.Term) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// headVarsInPart counts the head variables present in the part.
func headVarsInPart(headVars []cq.Term, own map[cq.Term]struct{}) []cq.Term {
	var out []cq.Term
	for _, t := range headVars {
		if _, ok := own[t]; ok {
			out = append(out, t)
		}
	}
	return out
}

// sortTailVars orders head[from:] by variable number, so the shared-variable
// tail of a part head is deterministic regardless of map iteration order.
func sortTailVars(head []cq.Term, from int) {
	tail := head[from:]
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && tail[j] > tail[j-1]; j-- { // vars negative: ascending var number
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
}

// Transition describes one applied transition, for traces and tests.
type Transition struct {
	Kind Stage
	View algebra.ViewID
	Desc string
}

func (t Transition) String() string {
	return fmt.Sprintf("%s(v%d%s)", t.Kind, int(t.View), t.Desc)
}
