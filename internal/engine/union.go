package engine

import (
	"fmt"
	"sort"
	"strings"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// Union leaves: a reformulated query answered as one conjunctive query whose
// atoms are unions of triple patterns. Rules 1–4 of the reformulation rewrite
// one atom into one alternative atom, so instead of planning one pipeline per
// member of the product union, the planner gives an atom with alternatives
// one leaf (PlanQueryAlts), and at run time that leaf is a cursor merging its
// alternatives' cursors.
//
// Each alternative's triples are re-mapped into the atom's own triple
// positions — the leaf's frame: a position holding one of the atom's
// variables takes the alternative's value for that variable, a position
// holding one of the atom's constants takes the constant. So t(F, p, X) (F
// existential) serves the frame of t(X, rdf:type, c) as (x, rdf:type, c), and
// every operator above the leaf — bindBatch, the repeated-variable checks, the
// merge join's rpos and seekGE — reads frame triples as it reads a plain
// atom's. Every alternative is scanned in a permutation that orders its
// re-mapped triples as the leaf's permutation orders the frame (constants
// first, then the frame's variables in the leaf's order, then the
// alternative's existential variable), so the merge emits the frame in the
// leaf's order, duplicates side by side, and drops them with O(1) state.

// altSpec is one alternative of a union leaf: a triple pattern whose matches,
// re-mapped into the leaf atom's positions, are matches of the atom.
type altSpec struct {
	atom   cq.Atom // retained for explain and Instantiate
	pat    store.Pattern
	perm   store.Perm
	src    [3]int   // frame position -> alternative position; -1: a frame constant
	checks [][2]int // the alternative's own repeated-variable checks
}

// makeAltSpecs compiles the alternatives of the frame atom a. Every variable
// of a must occur in each alternative; the permutations are set once the
// frame's is chosen (setAltPerms).
func makeAltSpecs(a cq.Atom, alts []cq.Atom) ([]altSpec, error) {
	out := make([]altSpec, len(alts))
	for k, alt := range alts {
		as := altSpec{atom: alt}
		as.pat, as.checks = compilePattern(alt)
		for pos := 0; pos < 3; pos++ {
			as.src[pos] = -1
			if !a[pos].IsVar() {
				continue
			}
			for ap := 0; ap < 3; ap++ {
				if alt[ap] == a[pos] {
					as.src[pos] = ap
					break
				}
			}
			if as.src[pos] < 0 {
				return nil, fmt.Errorf("engine: alternative %v of atom %v drops variable %v", alt, a, a[pos])
			}
		}
		out[k] = as
	}
	return out, nil
}

// setAltPerms gives every alternative of the spec the permutation that lists
// its constants, then the positions feeding the frame's variables in the
// frame permutation's order, then its existential position. All six orders
// exist, so the permutation always does.
func (spec *atomSpec) setAltPerms() {
	for k := range spec.alts {
		as := &spec.alts[k]
		var order [3]int
		n := 0
		add := func(pos int) {
			for _, p := range order[:n] {
				if p == pos {
					return
				}
			}
			order[n] = pos
			n++
		}
		for pos := 0; pos < 3; pos++ {
			if as.pat[pos] != store.Wildcard {
				add(pos)
			}
		}
		for _, fp := range spec.perm.Order() {
			if as.src[fp] >= 0 {
				add(as.src[fp])
			}
		}
		for pos := 0; pos < 3; pos++ {
			add(pos)
		}
		for p := store.SPO; p <= store.OPS; p++ {
			if p.Order() == order {
				as.perm = p
				break
			}
		}
	}
}

// describeAlts renders a union leaf's alternatives with their permutations
// (and, on a sharded layout, the partitions each opens).
func (spec *atomSpec) describeAlts(st store.Reader) string {
	parts := make([]string, len(spec.alts))
	for k, as := range spec.alts {
		a := as.atom
		parts[k] = fmt.Sprintf("t(%s, %s, %s) perm=%s", a[0], a[1], a[2], as.perm)
		if st != nil {
			if r := st.Placement().Route(as.perm, as.pat); r.K > 1 {
				parts[k] += fmt.Sprintf(" shards=%d/%d", r.Len(), r.K)
			}
		}
	}
	return " ∪{" + strings.Join(parts, ", ") + "}"
}

// altBufStart is the first fill size of each alternative's cursor, as
// triCursorRamp is a merge consumer's: a point lookup or a seek reads a
// handful of triples per alternative, so alternatives start from one small
// shared slab, double their fill per refill and move to a pooled BatchSize
// buffer once a fill outgrows the slab; a seek starts them small again.
const altBufStart = 8

// altCursor is one alternative's stream inside a unionCursor: its store
// cursor and a buffer of already re-mapped frame triples.
type altCursor struct {
	spec   *altSpec
	cur    store.Cursor
	buf    []store.Triple
	i, n   int
	lim    int  // next fill size
	pooled bool // buf came from getTris
}

// unionCursor is a union leaf's cursor: it k-way merges its alternatives'
// streams in the leaf permutation's order and emits each frame triple once.
type unionCursor struct {
	order [3]int // the leaf permutation's column order: the merge key
	frame store.Pattern
	alts  []altCursor
	heap  []int32 // alternatives with a buffered head, a min-heap on it
	last  store.Triple
	any   bool // last holds an emitted triple
	intr  *interrupt

	// started is set by the first NextBatch or SeekGE, which fill the
	// alternatives: a merge join's inner seeks to its first key before it
	// reads, and filling at open would decode triples that seek skips.
	started bool
}

// newUnionCursor opens every alternative's cursor of the spec on st.
func newUnionCursor(st store.Reader, spec *atomSpec, intr *interrupt) *unionCursor {
	u := &unionCursor{order: spec.perm.Order(), frame: spec.pat, intr: intr,
		alts: make([]altCursor, len(spec.alts)), heap: make([]int32, len(spec.alts))}
	slab := make([]store.Triple, len(spec.alts)*altBufStart)
	for k := range spec.alts {
		a := &u.alts[k]
		a.spec = &spec.alts[k]
		a.cur = st.NewCursor(a.spec.perm, a.spec.pat)
		a.buf = slab[k*altBufStart : (k+1)*altBufStart : (k+1)*altBufStart]
		u.heap[k] = int32(k)
	}
	return u
}

// refill calls skip on every alternative still in the heap, keeps those it
// leaves holding triples (filling those whose buffer it emptied) and
// restores the heap.
func (u *unionCursor) refill(skip func(a *altCursor)) {
	live := u.heap
	u.heap = u.heap[:0] // rebuilt in place: writes trail reads
	for _, k := range live {
		a := &u.alts[k]
		skip(a)
		if a.i < a.n || u.fill(a) {
			u.heap = append(u.heap, k)
		}
	}
	for i := len(u.heap)/2 - 1; i >= 0; i-- {
		u.down(i)
	}
}

// close returns the pooled buffers.
func (u *unionCursor) close() {
	if u == nil {
		return
	}
	for k := range u.alts {
		if a := &u.alts[k]; a.pooled {
			putTris(a.buf)
			a.buf, a.pooled = nil, false
		}
	}
}

// fill refills the alternative's buffer with re-mapped triples that pass its
// repeated-variable checks; false at the end of its stream.
func (u *unionCursor) fill(a *altCursor) bool {
	for {
		if u.intr.stop() { // cancellation checkpoint: once per decoded buffer
			a.i, a.n = 0, 0
			return false
		}
		a.lim = min(max(a.lim, altBufStart), BatchSize)
		if a.lim > len(a.buf) {
			a.buf, a.pooled = getTris(), true
		}
		n := a.cur.NextBatch(a.buf[:a.lim])
		a.lim *= 2
		if n == 0 {
			a.i, a.n = 0, 0
			return false
		}
		if n = u.remap(a.spec, a.buf[:n]); n > 0 {
			a.i, a.n = 0, n
			return true
		}
	}
}

// remap rewrites the alternative's triples in place into the leaf's frame,
// dropping those that fail the alternative's checks, and returns how many
// remain.
func (u *unionCursor) remap(as *altSpec, tris []store.Triple) int {
	src, frame := as.src, u.frame
	k := 0
	for _, t := range tris {
		ok := true
		for _, c := range as.checks {
			if t[c[0]] != t[c[1]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		f := store.Triple(frame)
		for pos, sp := range src {
			if sp >= 0 {
				f[pos] = t[sp]
			}
		}
		tris[k] = f
		k++
	}
	return k
}

// less orders two alternatives by their head triples in the leaf's order.
func (u *unionCursor) less(x, y int32) bool {
	a, b := &u.alts[x], &u.alts[y]
	s, t := &a.buf[a.i], &b.buf[b.i]
	for _, c := range u.order {
		if s[c] != t[c] {
			return s[c] < t[c]
		}
	}
	return false
}

// down restores the heap property below position i.
func (u *unionCursor) down(i int) {
	h := u.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && u.less(h[r], h[l]) {
			m = r
		}
		if !u.less(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// NextBatch writes up to len(dst) distinct frame triples in the leaf's order
// and returns how many; zero means EOF.
func (u *unionCursor) NextBatch(dst []store.Triple) int {
	if !u.started {
		u.started = true
		u.refill(func(*altCursor) {})
	}
	n := 0
	for n < len(dst) && len(u.heap) > 0 {
		a := &u.alts[u.heap[0]]
		t := a.buf[a.i]
		a.i++
		if !u.any || t != u.last {
			dst[n] = t
			n++
			u.last, u.any = t, true
		}
		if a.i == a.n && !u.fill(a) {
			last := len(u.heap) - 1
			u.heap[0] = u.heap[last]
			u.heap = u.heap[:last]
		}
		u.down(0)
	}
	return n
}

// SeekGE skips every alternative past the frame triples whose value at the
// frame position col is below key. col is the first variable position of the
// leaf's order, as for a store cursor, so each alternative seeks on the
// position feeding it — the first variable position of its own order.
func (u *unionCursor) SeekGE(col int, key dict.ID) {
	u.started = true
	u.refill(func(a *altCursor) {
		if a.i < a.n && a.buf[a.n-1][col] >= key {
			rest := a.buf[a.i:a.n]
			a.i += sort.Search(len(rest), func(j int) bool { return rest[j][col] >= key })
			return
		}
		a.cur.SeekGE(a.spec.src[col], key)
		a.i, a.n = 0, 0
		a.lim = 0 // a seek usually lands on one group
	})
}
