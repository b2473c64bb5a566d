package cq

import (
	"fmt"
	"sort"
	"strings"
)

// oracleCanonicalize is a direct string-and-map rendering of the canonical
// labeling, the test oracle for the kernel in canon.go: set-mode codes must
// equal its codes byte for byte, and the kernel's numbering its renaming,
// because both end up in plan-cache keys (whose bytes pick LRU shards).
func oracleCanonicalize(q *Query) (string, map[Term]Term) {
	ctx := &oracleCtx{
		q:      q,
		used:   make([]bool, len(q.Atoms)),
		varNum: make(map[Term]int),
	}
	ctx.rec()
	return ctx.bestFull, ctx.bestMap
}

type oracleCtx struct {
	q        *Query
	used     []bool
	varNum   map[Term]int
	assigned []Term // assignment order; varNum[assigned[i]] == i+1

	parts []string

	bestBody string // best body code found so far ("" = none)
	bestFull string // bestBody + head suffix
	bestMap  map[Term]Term
}

// serializeAtom renders atom ai under the current numbering, assigning
// temporary numbers (without committing) to unseen variables in position
// order.
func (c *oracleCtx) serializeAtom(ai int) string {
	a := c.q.Atoms[ai]
	next := len(c.assigned) + 1
	tmp := make(map[Term]int, 3)
	var sb strings.Builder
	sb.WriteByte('(')
	for p := 0; p < 3; p++ {
		if p > 0 {
			sb.WriteByte(',')
		}
		t := a[p]
		if t.IsConst() {
			fmt.Fprintf(&sb, "#%d", int64(t))
			continue
		}
		n, ok := c.varNum[t]
		if !ok {
			n, ok = tmp[t]
			if !ok {
				n = next
				next++
				tmp[t] = n
			}
		}
		fmt.Fprintf(&sb, "?%d", n)
	}
	sb.WriteByte(')')
	return sb.String()
}

func (c *oracleCtx) rec() {
	if len(c.parts) == len(c.q.Atoms) {
		body := strings.Join(c.parts, "")
		if c.bestBody != "" && body > c.bestBody {
			return
		}
		full := body + c.headSuffix()
		if c.bestBody == "" || body < c.bestBody || (body == c.bestBody && full < c.bestFull) {
			c.bestBody, c.bestFull = body, full
			m := make(map[Term]Term, len(c.varNum))
			for v, n := range c.varNum {
				m[v] = Var(n)
			}
			c.bestMap = m
		}
		return
	}
	minCode := ""
	var cands []int
	for ai := range c.q.Atoms {
		if c.used[ai] {
			continue
		}
		code := c.serializeAtom(ai)
		switch {
		case minCode == "" || code < minCode:
			minCode = code
			cands = cands[:0]
			cands = append(cands, ai)
		case code == minCode:
			cands = append(cands, ai)
		}
	}
	if c.bestBody != "" {
		prefix := strings.Join(c.parts, "") + minCode
		l := len(prefix)
		if len(c.bestBody) < l {
			l = len(c.bestBody)
		}
		if prefix[:l] > c.bestBody[:l] {
			return
		}
	}
	for _, ai := range cands {
		var fresh []Term
		for p := 0; p < 3; p++ {
			t := c.q.Atoms[ai][p]
			if t.IsVar() {
				if _, ok := c.varNum[t]; !ok {
					c.assigned = append(c.assigned, t)
					c.varNum[t] = len(c.assigned)
					fresh = append(fresh, t)
				}
			}
		}
		c.used[ai] = true
		c.parts = append(c.parts, minCode)
		c.rec()
		c.parts = c.parts[:len(c.parts)-1]
		c.used[ai] = false
		for _, t := range fresh {
			delete(c.varNum, t)
		}
		c.assigned = c.assigned[:len(c.assigned)-len(fresh)]
	}
}

// headSuffix serializes the head as a sorted set under the final numbering.
func (c *oracleCtx) headSuffix() string {
	toks := make([]string, 0, len(c.q.Head))
	seen := make(map[string]struct{}, len(c.q.Head))
	for _, t := range c.q.Head {
		var s string
		if t.IsConst() {
			s = fmt.Sprintf("#%d", int64(t))
		} else {
			n, ok := c.varNum[t]
			if !ok {
				s = "?free"
			} else {
				s = fmt.Sprintf("?%d", n)
			}
		}
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		toks = append(toks, s)
	}
	sort.Strings(toks)
	return "H[" + strings.Join(toks, ",") + "]"
}
