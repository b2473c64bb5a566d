// Package algebra implements the rewriting language of the paper: relational
// algebra expressions (select, project, join, union) over view scans, used as
// the R component of every state ⟨V, R⟩. Transitions rewrite plans by
// substituting view occurrences with expressions (Definitions 3.2–3.5), so
// plans are immutable trees sharing unchanged subtrees.
//
// Plan columns are labeled by cq.Term values: variables of the workload
// query's namespace (plus fresh variables introduced by transitions), or
// constants for head positions bound by reformulation. Natural joins equate
// columns with equal labels.
package algebra

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"rdfviews/internal/cq"
)

// ViewID identifies a view within a state. IDs are allocated by the search
// and never reused within one search run.
type ViewID int

// Plan is a rewriting expression tree.
type Plan interface {
	// Columns returns the output column labels, in order, duplicates removed
	// (a natural join exposes one copy of each shared label).
	Columns() []cq.Term
	// Views appends the ViewIDs of all scan leaves (with repetitions) to dst.
	Views(dst []ViewID) []ViewID
	// String renders the plan for debugging and golden tests.
	String() string
}

// Cond is an equality condition: Left must be a column label; Right is a
// column label or a constant.
type Cond struct {
	Left  cq.Term
	Right cq.Term
}

func (c Cond) String() string {
	return fmt.Sprintf("%s=%s", c.Left, c.Right)
}

// Scan reads a materialized view. Cols relabels the view's head positions
// into the rewriting's namespace: Cols[i] labels the view's i-th head
// column. View Fusion's ⟨i→j⟩ renaming is expressed through Cols.
type Scan struct {
	View ViewID
	Cols []cq.Term
}

// NewScan builds a scan leaf.
func NewScan(v ViewID, cols []cq.Term) *Scan {
	return &Scan{View: v, Cols: append([]cq.Term(nil), cols...)}
}

// Columns implements Plan. Repeated labels are exposed once.
func (s *Scan) Columns() []cq.Term { return dedupTerms(s.Cols) }

// Views implements Plan.
func (s *Scan) Views(dst []ViewID) []ViewID { return append(dst, s.View) }

func (s *Scan) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.String()
	}
	return fmt.Sprintf("v%d[%s]", int(s.View), strings.Join(parts, ","))
}

// Select filters its input by equality conditions (σ).
type Select struct {
	Input Plan
	Conds []Cond
}

// NewSelect builds a selection; conditions referencing absent columns are a
// programming error detected at execution/estimation time.
func NewSelect(in Plan, conds ...Cond) *Select {
	return &Select{Input: in, Conds: append([]Cond(nil), conds...)}
}

// Columns implements Plan.
func (s *Select) Columns() []cq.Term { return s.Input.Columns() }

// Views implements Plan.
func (s *Select) Views(dst []ViewID) []ViewID { return s.Input.Views(dst) }

func (s *Select) String() string {
	parts := make([]string, len(s.Conds))
	for i, c := range s.Conds {
		parts[i] = c.String()
	}
	return fmt.Sprintf("σ[%s](%s)", strings.Join(parts, "&"), s.Input)
}

// Project restricts/reorders the output columns (π). Cols may contain
// constants, which project as constant-valued columns.
type Project struct {
	Input Plan
	Cols  []cq.Term
}

// NewProject builds a projection.
func NewProject(in Plan, cols []cq.Term) *Project {
	return &Project{Input: in, Cols: append([]cq.Term(nil), cols...)}
}

// Columns implements Plan.
func (p *Project) Columns() []cq.Term { return dedupTerms(p.Cols) }

// Views implements Plan.
func (p *Project) Views(dst []ViewID) []ViewID { return p.Input.Views(dst) }

func (p *Project) String() string {
	parts := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		parts[i] = c.String()
	}
	return fmt.Sprintf("π[%s](%s)", strings.Join(parts, ","), p.Input)
}

// Join is the natural join of its inputs (equating columns with equal
// labels) plus the explicit cross conditions Conds (Left column from the
// left input, Right column from the right input) — Join Cut's ⊳⊲e.
type Join struct {
	Left, Right Plan
	Conds       []Cond
}

// NewJoin builds a join.
func NewJoin(l, r Plan, conds ...Cond) *Join {
	return &Join{Left: l, Right: r, Conds: append([]Cond(nil), conds...)}
}

// Columns implements Plan: left columns then right columns, shared labels
// exposed once.
func (j *Join) Columns() []cq.Term {
	return dedupTerms(append(append([]cq.Term{}, j.Left.Columns()...), j.Right.Columns()...))
}

// Views implements Plan.
func (j *Join) Views(dst []ViewID) []ViewID {
	return j.Right.Views(j.Left.Views(dst))
}

func (j *Join) String() string {
	if len(j.Conds) == 0 {
		return fmt.Sprintf("(%s ⋈ %s)", j.Left, j.Right)
	}
	parts := make([]string, len(j.Conds))
	for i, c := range j.Conds {
		parts[i] = c.String()
	}
	return fmt.Sprintf("(%s ⋈[%s] %s)", j.Left, strings.Join(parts, "&"), j.Right)
}

// Union is the set union of its branches, which must share column arity;
// columns are aligned positionally. It appears in the rewritings of
// pre-reformulation initial states (Section 4.3).
type Union struct {
	Branches []Plan
}

// NewUnion builds a union.
func NewUnion(branches ...Plan) *Union {
	return &Union{Branches: append([]Plan(nil), branches...)}
}

// Columns implements Plan: the first branch's columns label the output.
func (u *Union) Columns() []cq.Term {
	if len(u.Branches) == 0 {
		return nil
	}
	return u.Branches[0].Columns()
}

// Views implements Plan.
func (u *Union) Views(dst []ViewID) []ViewID {
	for _, b := range u.Branches {
		dst = b.Views(dst)
	}
	return dst
}

func (u *Union) String() string {
	parts := make([]string, len(u.Branches))
	for i, b := range u.Branches {
		parts[i] = b.String()
	}
	return "(" + strings.Join(parts, " ∪ ") + ")"
}

// SubstituteViews returns a copy of p in which every scan of a view in subs
// is replaced by subs[view]. Unchanged subtrees are shared, not copied.
//
// A replacement is written in the namespace of the view it replaces: its
// head — a projection's columns, or else its output columns — is that
// view's head, position for position, and every other label in it is its
// own. A scan, though, may relabel the view's head (Cols; View Fusion's
// ⟨3→2⟩ renaming is one), so each substituted scan gets the replacement
// relabeled to it: head position i becomes Cols[i], and every other label
// of the replacement that one of Cols would capture becomes a label fresh
// to the replacement (a Join Cut's extra column is a body variable of the
// view, and the scan may expose a column of that name). Cols must be the
// replacement's head under a renaming of its variables, constants in place.
// A scan whose Cols is the replacement's head gets the replacement itself.
func SubstituteViews(p Plan, subs map[ViewID]Plan) Plan {
	switch n := p.(type) {
	case *Scan:
		if r, ok := subs[n.View]; ok {
			return relabel(r, n.Cols)
		}
		return n
	case *Select:
		in := SubstituteViews(n.Input, subs)
		if in == n.Input {
			return n
		}
		return &Select{Input: in, Conds: n.Conds}
	case *Project:
		in := SubstituteViews(n.Input, subs)
		if in == n.Input {
			return n
		}
		return &Project{Input: in, Cols: n.Cols}
	case *Join:
		l := SubstituteViews(n.Left, subs)
		r := SubstituteViews(n.Right, subs)
		if l == n.Left && r == n.Right {
			return n
		}
		return &Join{Left: l, Right: r, Conds: n.Conds}
	case *Union:
		// The branch list is copied from the first branch that changes on;
		// a union nothing is substituted in costs no allocation.
		var bs []Plan
		for i, b := range n.Branches {
			nb := SubstituteViews(b, subs)
			if nb != b && bs == nil {
				bs = append(make([]Plan, 0, len(n.Branches)), n.Branches[:i]...)
			}
			if bs != nil {
				bs = append(bs, nb)
			}
		}
		if bs == nil {
			return n
		}
		return &Union{Branches: bs}
	default:
		panic(fmt.Sprintf("algebra: unknown plan node %T", p))
	}
}

// relabel returns replacement r with its head relabeled to cols, as
// SubstituteViews describes: a relabeled copy of r, or r itself when cols is
// its head.
func relabel(r Plan, cols []cq.Term) Plan {
	head := headOf(r)
	if slices.Equal(head, cols) {
		return r
	}
	if len(head) != len(cols) {
		panic(fmt.Sprintf("algebra: a scan labels %d columns, its replacement's head has %d", len(cols), len(head)))
	}
	ren := make(renaming, 0, 2*len(cols))
	for i, h := range head {
		if !h.IsVar() && h != cols[i] {
			panic(fmt.Sprintf("algebra: a scan relabels the replacement's head constant %v to %v", h, cols[i]))
		}
		ren = append(ren, [2]cq.Term{h, cols[i]})
	}
	// A column label that is not a head label may still label something
	// inside r: move it out of the way.
	fresh := 0
	for _, c := range cols {
		if _, ok := ren.lookup(c); ok || !c.IsVar() {
			continue
		}
		if fresh == 0 {
			fresh = maxVarNum(r, 0)
			for _, c := range cols {
				if c.IsVar() {
					fresh = max(fresh, c.VarNum())
				}
			}
		}
		fresh++
		ren = append(ren, [2]cq.Term{c, cq.Var(fresh)})
	}
	return ren.plan(r)
}

// headOf is a replacement's head: a projection's or scan's columns as
// listed, the first branch's for a union, the output columns otherwise.
func headOf(p Plan) []cq.Term {
	switch n := p.(type) {
	case *Project:
		return n.Cols
	case *Scan:
		return n.Cols
	case *Select:
		return headOf(n.Input)
	case *Union:
		if len(n.Branches) > 0 {
			return headOf(n.Branches[0])
		}
	}
	return p.Columns()
}

// maxVarNum is the largest of m and the variable numbers among p's labels.
func maxVarNum(p Plan, m int) int {
	see := func(ts ...cq.Term) {
		for _, t := range ts {
			if t.IsVar() {
				m = max(m, t.VarNum())
			}
		}
	}
	switch n := p.(type) {
	case *Scan:
		see(n.Cols...)
	case *Select:
		for _, c := range n.Conds {
			see(c.Left, c.Right)
		}
		m = maxVarNum(n.Input, m)
	case *Project:
		see(n.Cols...)
		m = maxVarNum(n.Input, m)
	case *Join:
		for _, c := range n.Conds {
			see(c.Left, c.Right)
		}
		m = maxVarNum(n.Right, maxVarNum(n.Left, m))
	case *Union:
		for _, b := range n.Branches {
			m = maxVarNum(b, m)
		}
	}
	return m
}

// renaming maps labels to labels, all at once; labels it does not list stay.
type renaming [][2]cq.Term

func (ren renaming) lookup(t cq.Term) (cq.Term, bool) {
	for _, e := range ren {
		if e[0] == t {
			return e[1], true
		}
	}
	return t, false
}

func (ren renaming) terms(ts []cq.Term) []cq.Term {
	out := make([]cq.Term, len(ts))
	for i, t := range ts {
		out[i], _ = ren.lookup(t)
	}
	return out
}

func (ren renaming) conds(cs []Cond) []Cond {
	out := make([]Cond, len(cs))
	for i, c := range cs {
		out[i].Left, _ = ren.lookup(c.Left)
		out[i].Right, _ = ren.lookup(c.Right)
	}
	return out
}

// plan returns a copy of p with every label renamed.
func (ren renaming) plan(p Plan) Plan {
	switch n := p.(type) {
	case *Scan:
		return &Scan{View: n.View, Cols: ren.terms(n.Cols)}
	case *Select:
		return &Select{Input: ren.plan(n.Input), Conds: ren.conds(n.Conds)}
	case *Project:
		return &Project{Input: ren.plan(n.Input), Cols: ren.terms(n.Cols)}
	case *Join:
		return &Join{Left: ren.plan(n.Left), Right: ren.plan(n.Right), Conds: ren.conds(n.Conds)}
	case *Union:
		bs := make([]Plan, len(n.Branches))
		for i, b := range n.Branches {
			bs[i] = ren.plan(b)
		}
		return &Union{Branches: bs}
	default:
		panic(fmt.Sprintf("algebra: unknown plan node %T", p))
	}
}

// ScanRenamed builds a scan of view id whose head is viewHead, relabeling
// column i from viewHead[i] to rename[viewHead[i]] when mapped. It is the
// ⟨i→j⟩ helper for View Fusion.
func ScanRenamed(id ViewID, viewHead []cq.Term, rename map[cq.Term]cq.Term) *Scan {
	cols := make([]cq.Term, len(viewHead))
	for i, h := range viewHead {
		if to, ok := rename[h]; ok {
			cols[i] = to
		} else {
			cols[i] = h
		}
	}
	return &Scan{View: id, Cols: cols}
}

// SortedViewIDs returns the distinct views used by the plan, sorted.
func SortedViewIDs(p Plan) []ViewID {
	ids := p.Views(nil)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	var last ViewID = -1
	for _, id := range ids {
		if id != last {
			out = append(out, id)
			last = id
		}
	}
	return out
}

func dedupTerms(ts []cq.Term) []cq.Term {
	seen := make(map[cq.Term]struct{}, len(ts))
	out := make([]cq.Term, 0, len(ts))
	for _, t := range ts {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
