package cq

import (
	"bytes"
	"slices"
	"sort"
	"strconv"
)

// Canonical codes: a string representation invariant under variable renaming
// and atom reordering. Two queries have the same canonical code iff they are
// identical up to a bijective variable renaming, with heads compared as the
// head mode says. The search uses set-mode codes to detect duplicate states —
// Section 5 reports duplicate detection as essential ("our algorithm
// identifies such states as soon as they are created") — since a view's
// column order is immaterial to what it stores. Unions deduplicate their
// terms in ordered mode: Theorem 4.1 needs union terms equal up to a renaming
// that fixes the head positionally, and a set-mode code would merge the
// mirror images of a head-symmetric query.
//
// The algorithm is a branch-and-bound canonical labeling: atoms are emitted
// one at a time; at each step only the atoms whose serialization (under the
// variable numbering fixed so far, with fresh numbers assigned in position
// order) is lexicographically minimal are candidates. Because atom codes are
// prefix-free, the greedy choice is sound, and branching is needed only on
// ties (symmetries). Every labeling that reaches the minimal body is a leaf
// of this search, so one run serves both head modes: each such leaf offers
// its head serialization and the least one wins. Typical view sizes are
// ≤ 10–15 atoms, where this is fast.

// HeadMode is how a canonical code serializes the head.
type HeadMode uint8

const (
	// SetHead serializes the head as a set, H[t,…]: its tokens deduplicated
	// and sorted as strings (so ?10 sorts before ?2).
	SetHead HeadMode = iota
	// OrderedHead serializes the head positionally, H(t,…), least over every
	// labeling that reaches the minimal body: equal codes mean a renaming
	// that maps one query onto the other column for column.
	OrderedHead
)

// Labeling is the outcome of one canonical labeling run.
type Labeling struct {
	// Code is the canonical code: the body code, then the head in the run's
	// mode.
	Code string
	// BodyLen is the length of the body code Code[:BodyLen], which queries
	// with isomorphic bodies share whatever their heads.
	BodyLen int
	// Vars is the numbering that produced Code: Vars[n-1] is the variable
	// numbered n.
	Vars []Term
}

// Num returns the number the labeling gives variable t, 0 when t is not a
// body variable.
func (l *Labeling) Num(t Term) int {
	for i, v := range l.Vars {
		if v == t {
			return i + 1
		}
	}
	return 0
}

// AppendToken appends head term t's token under the labeling: #id for a
// constant, ?n for the variable numbered n, ?free for a variable the body
// lacks (which Validate rejects).
func (l *Labeling) AppendToken(dst []byte, t Term) []byte {
	return appendToken(dst, t, int32(l.Num(t)))
}

// appendToken appends a term's token, variables by their number n (0 when
// the body lacks them).
func appendToken(dst []byte, t Term, n int32) []byte {
	switch {
	case t.IsConst():
		return strconv.AppendInt(append(dst, '#'), int64(t), 10)
	case n == 0:
		return append(dst, "?free"...)
	}
	return strconv.AppendInt(append(dst, '?'), int64(n), 10)
}

// CanonicalCode returns the set-mode canonical code of the query.
func (q *Query) CanonicalCode() string { return string(label(q, SetHead).best) }

// OrderedCode returns the ordered-mode canonical code of the query.
func (q *Query) OrderedCode() string { return string(label(q, OrderedHead).best) }

// Label runs the canonical labeling in the given head mode.
func (q *Query) Label(mode HeadMode) Labeling {
	lb := label(q, mode)
	vars := make([]Term, len(lb.vars))
	for i, n := range lb.bestNum {
		vars[n-1] = lb.vars[i]
	}
	return Labeling{Code: string(lb.best), BodyLen: lb.bestBody, Vars: vars}
}

// CanonicalizeVars returns an equivalent query with variables renumbered
// 1..k in canonical order and atoms sorted canonically. Queries identical up
// to variable renaming canonicalize to structurally equal queries (up to
// head order, which is preserved positionally from q).
func (q *Query) CanonicalizeVars() *Query {
	lab := q.Label(SetHead)
	m := make(map[Term]Term, len(lab.Vars))
	for i, v := range lab.Vars {
		m[v] = Var(i + 1)
	}
	out := q.RenameVars(m)
	sort.Slice(out.Atoms, func(i, j int) bool {
		return atomLess(out.Atoms[i], out.Atoms[j])
	})
	return out
}

func atomLess(a, b Atom) bool {
	for p := 0; p < 3; p++ {
		if a[p] != b[p] {
			return a[p] > b[p] // variables are negative: sort by canonical number ascending
		}
	}
	return false
}

// labeler is one labeling run. A variable is addressed by its index in vars
// (first occurrence in the body); num holds the number fixed for each on the
// current path, 0 while unassigned.
type labeler struct {
	q     *Query
	mode  HeadMode
	vars  []Term
	vi    [][3]int32 // per atom position: index into vars, -1 for a constant
	num   []int32
	n     int32 // numbers assigned on the current path
	used  []bool
	depth int // atoms on the current path

	buf   []byte  // body code of the current path
	tmp   []byte  // least next-atom code, then a candidate's; head suffixes
	cands []int32 // candidate atoms, one run per level of the current path

	// Set mode: the head tokens, where each ends in hbuf, their sorted order.
	hbuf        []byte
	hends, hord []int

	found    bool
	best     []byte // best body code followed by its head suffix
	bestBody int    // body length in best
	bestNum  []int32
}

// label runs the branch and bound over q.
func label(q *Query, mode HeadMode) *labeler {
	na := len(q.Atoms)
	lb := &labeler{
		q: q, mode: mode,
		vars: make([]Term, 0, 3*na), vi: make([][3]int32, na), used: make([]bool, na),
		buf: make([]byte, 0, 16*na), tmp: make([]byte, 0, 32), best: make([]byte, 0, 16*na+16),
	}
	for ai, a := range q.Atoms {
		for p, t := range a {
			lb.vi[ai][p] = lb.varIndex(t, true)
		}
	}
	k := len(lb.vars)
	lb.num, lb.bestNum, lb.cands = make([]int32, k), make([]int32, k), make([]int32, 0, 2*na)
	lb.rec()
	return lb
}

// varIndex returns variable t's index in vars, appending it when add is
// set; -1 for a constant, or for a variable absent and not added.
func (lb *labeler) varIndex(t Term, add bool) int32 {
	if !t.IsVar() {
		return -1
	}
	for i, v := range lb.vars {
		if v == t {
			return int32(i)
		}
	}
	if !add {
		return -1
	}
	lb.vars = append(lb.vars, t)
	return int32(len(lb.vars) - 1)
}

// number numbers atom ai's unseen variables n+1, n+2, … in position order
// and returns n, which unnumber takes to undo it.
func (lb *labeler) number(ai int) int32 {
	n0 := lb.n
	for _, v := range lb.vi[ai] {
		if v >= 0 && lb.num[v] == 0 {
			lb.n++
			lb.num[v] = lb.n
		}
	}
	return n0
}

func (lb *labeler) unnumber(ai int, n0 int32) {
	for _, v := range lb.vi[ai] {
		if v >= 0 && lb.num[v] > n0 {
			lb.num[v] = 0
		}
	}
	lb.n = n0
}

// appendAtom appends atom ai's code under the current numbering.
func (lb *labeler) appendAtom(dst []byte, ai int) []byte {
	dst = append(dst, '(')
	for p, v := range lb.vi[ai] {
		if p > 0 {
			dst = append(dst, ',')
		}
		dst = appendToken(dst, lb.q.Atoms[ai][p], lb.numOf(v))
	}
	return append(dst, ')')
}

func (lb *labeler) rec() {
	if lb.depth == len(lb.q.Atoms) {
		lb.leaf()
		return
	}
	// The least next-atom code is kept in tmp[:m], each candidate's is
	// rendered after it.
	start := len(lb.cands)
	m := 0
	for ai := range lb.q.Atoms {
		if lb.used[ai] {
			continue
		}
		n0 := lb.number(ai)
		lb.tmp = lb.appendAtom(lb.tmp[:m], ai)
		lb.unnumber(ai, n0)
		c := -1
		if len(lb.cands) > start {
			c = bytes.Compare(lb.tmp[m:], lb.tmp[:m])
		}
		switch {
		case c < 0:
			m = copy(lb.tmp, lb.tmp[m:])
			lb.cands = append(lb.cands[:start], int32(ai))
		case c == 0:
			lb.cands = append(lb.cands, int32(ai))
		}
	}
	// Prefix bound: if the body so far plus the next code is already above
	// the best body on their common length, no completion can win.
	if lb.found && lb.above(lb.tmp[:m]) {
		lb.cands = lb.cands[:start]
		return
	}
	for i, end := start, len(lb.cands); i < end; i++ {
		ai := int(lb.cands[i])
		mark, n0 := len(lb.buf), lb.number(ai)
		lb.buf = lb.appendAtom(lb.buf, ai)
		lb.used[ai] = true
		lb.depth++
		lb.rec()
		lb.depth--
		lb.used[ai] = false
		lb.unnumber(ai, n0)
		lb.buf = lb.buf[:mark]
	}
	lb.cands = lb.cands[:start]
}

// above reports whether the body so far followed by next exceeds the best
// body on their common length.
func (lb *labeler) above(next []byte) bool {
	best := lb.best[:lb.bestBody]
	l := min(len(lb.buf), len(best))
	if c := bytes.Compare(lb.buf[:l], best[:l]); c != 0 || l == len(best) {
		return c > 0
	}
	best = best[l:]
	l = min(len(next), len(best))
	return bytes.Compare(next[:l], best[:l]) > 0
}

// leaf keeps the current path when it beats the best: a smaller body, or the
// same body with a smaller head suffix. Of the paths reaching the winning
// code, the first one's numbering is kept.
func (lb *labeler) leaf() {
	c := -1
	if lb.found {
		if c = bytes.Compare(lb.buf, lb.best[:lb.bestBody]); c > 0 {
			return
		}
	}
	lb.tmp = lb.appendHead(lb.tmp[:0])
	if c == 0 && bytes.Compare(lb.tmp, lb.best[lb.bestBody:]) >= 0 {
		return
	}
	lb.found = true
	lb.best = append(append(lb.best[:0], lb.buf...), lb.tmp...)
	lb.bestBody = len(lb.buf)
	copy(lb.bestNum, lb.num)
}

// numOf is the current number of the variable at index v, 0 for none.
func (lb *labeler) numOf(v int32) int32 {
	if v < 0 {
		return 0
	}
	return lb.num[v]
}

// appendHeadToken appends head position j's token under the current
// numbering.
func (lb *labeler) appendHeadToken(dst []byte, j int) []byte {
	t := lb.q.Head[j]
	return appendToken(dst, t, lb.numOf(lb.varIndex(t, false)))
}

// appendHead appends the head suffix in the run's mode under the current
// numbering.
func (lb *labeler) appendHead(dst []byte) []byte {
	if lb.mode == OrderedHead {
		dst = append(dst, "H("...)
		for j := range lb.q.Head {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = lb.appendHeadToken(dst, j)
		}
		return append(dst, ')')
	}
	// Set mode: render the tokens into hbuf, sort their indexes, then write
	// each distinct token once.
	lb.hbuf, lb.hends, lb.hord = lb.hbuf[:0], lb.hends[:0], lb.hord[:0]
	for j := range lb.q.Head {
		lb.hbuf = lb.appendHeadToken(lb.hbuf, j)
		lb.hends = append(lb.hends, len(lb.hbuf))
		lb.hord = append(lb.hord, j)
	}
	tok := func(i int) []byte {
		if i == 0 {
			return lb.hbuf[:lb.hends[0]]
		}
		return lb.hbuf[lb.hends[i-1]:lb.hends[i]]
	}
	slices.SortFunc(lb.hord, func(a, b int) int { return bytes.Compare(tok(a), tok(b)) })
	dst = append(dst, "H["...)
	var prev []byte
	for n, i := range lb.hord {
		t := tok(i)
		if n > 0 {
			if bytes.Equal(t, prev) {
				continue
			}
			dst = append(dst, ',')
		}
		dst, prev = append(dst, t...), t
	}
	return append(dst, ']')
}
