package engine

import (
	"fmt"
	"math/bits"
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
// alternative's existential variable), so each alternative streams the frame
// in the leaf's order, its duplicates side by side (a fill drops them).
//
// The cursor then merges the alternatives' streams into the frame in the
// leaf's order, each frame triple once, in one of two ways, picked at its
// first pull from what it observes (unionCursor.start):
//
//   - the bitset merge, for a leaf that drives a scan (a scanOp: never
//     sought), whose frame has one variable column and whose alternatives
//     hold at least BatchSize triples (their cursors' Remaining, summed).
//     Frame triples then differ in one ID, so the merge runs in windows of
//     windowBits IDs starting at the smallest live head: each alternative
//     whose head lies in the window ORs its keys below the window's end into
//     one bitset, and the set bits are emitted in order. A triple read costs
//     a bit-set, and the dedup state is the bitset's 1 KiB however large
//     the answer. The serve-scan benchmark's type unions run it.
//   - the heap merge, for every other leaf — a merge join's sought inner,
//     two variable columns, a small point lookup: it pops the smallest head
//     triple and drops it when it equals the last one emitted. The
//     serve-adhoc benchmark's leaves run it.
//
// Both keep the alternatives in a min-heap on their head frame triples,
// compared on the frame's variable columns only (its constants never
// differ). The heap merge steps it per triple; the bitset merge per
// alternative a window reads, so a window holding one key costs about what
// the heap merge pays for it.

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
// are readable (the store keeps four and sorts SOP and OPS from SPO and OSP
// at read time), so the permutation always does.
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

// altBufStart is the first fill size of each alternative's cursor under the
// heap merge, as triCursorRamp is a merge consumer's: a point lookup or a
// seek reads a handful of triples per alternative, so alternatives start
// from one small shared slab, double their fill per refill and move to a
// pooled BatchSize buffer once a fill outgrows the slab; a seek starts them
// small again. Under the bitset merge every alternative is read to its end,
// so each fills a pooled BatchSize buffer from the first.
const altBufStart = 8

// windowBits is the span of the bitset merge's window, in IDs: a 1 KiB
// bitset.
const (
	windowBits  = 8192
	windowWords = windowBits / 64
)

// unionMergeHook, when set, is told which merge each union-leaf cursor picks
// at its first pull. Tests set it to check the rule; it is nil otherwise.
var unionMergeHook func(bitset bool)

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

// headEntry is one alternative in the merges' heap, keyed on its head triple.
type headEntry struct {
	t store.Triple
	k int32 // index into alts
}

// unionCursor is a union leaf's cursor: it merges its alternatives' streams
// in the leaf permutation's order and emits each frame triple once, by the
// heap or the bitset merge (see the top of this file).
type unionCursor struct {
	frame store.Pattern
	keys  [3]int // the frame's variable positions in the leaf's order ...
	nkeys int    // ... of which there are nkeys: what frame triples differ in
	alts  []altCursor
	intr  *interrupt
	drive bool // the leaf drives a scan, so it is never sought

	// started is set by the first NextBatch or SeekGE, which fill the
	// alternatives: a merge join's inner seeks to its first key before it
	// reads, and filling at open would decode triples that seek skips.
	started bool

	// Alternatives with a buffered head, a min-heap on it: both merges.
	heap []headEntry

	// The heap merge: the last frame triple emitted.
	last store.Triple
	any  bool // last holds an emitted triple

	// The bitset merge: nil bits means the heap merge runs.
	bits   *[windowWords]uint64
	base   dict.ID // the current window's first key
	wi, wn int     // next word of the window to emit; one past its last set word
}

// newUnionCursor opens every alternative's cursor of the spec on st. drive
// marks a leaf that drives a scan and is never sought.
func newUnionCursor(st store.Reader, spec *atomSpec, intr *interrupt, drive bool) *unionCursor {
	u := &unionCursor{frame: spec.pat, intr: intr, drive: drive, alts: make([]altCursor, len(spec.alts))}
	for _, c := range spec.perm.Order() {
		if spec.pat[c] == store.Wildcard {
			u.keys[u.nkeys] = c
			u.nkeys++
		}
	}
	for k := range spec.alts {
		a := &u.alts[k]
		a.spec = &spec.alts[k]
		a.cur = st.NewCursor(a.spec.perm, a.spec.pat)
	}
	return u
}

// start picks the cursor's merge at its first pull or seek: the bitset when
// the leaf drives a scan, its frame has one variable column and its
// alternatives hold at least BatchSize triples — enough for windows to beat
// heap pops — and the heap otherwise. Both keep the alternatives in a heap
// on their head triples; the first pull or seek fills it.
func (u *unionCursor) start() {
	u.started = true
	bitset := false
	if u.drive && u.nkeys == 1 {
		rem := 0
		for k := range u.alts {
			rem += u.alts[k].cur.Remaining()
		}
		bitset = rem >= BatchSize
	}
	if unionMergeHook != nil {
		unionMergeHook(bitset)
	}
	if bitset {
		u.bits = new([windowWords]uint64)
		for k := range u.alts {
			u.alts[k].lim = BatchSize
		}
	} else {
		slab := make([]store.Triple, len(u.alts)*altBufStart)
		for k := range u.alts {
			u.alts[k].buf = slab[k*altBufStart : (k+1)*altBufStart : (k+1)*altBufStart]
		}
	}
	u.heap = make([]headEntry, len(u.alts))
	for k := range u.heap {
		u.heap[k].k = int32(k)
	}
}

// refill calls skip on every alternative still in the heap, keeps those it
// leaves holding triples (filling those whose buffer it emptied) and
// restores the heap.
func (u *unionCursor) refill(skip func(a *altCursor)) {
	live := u.heap
	u.heap = u.heap[:0] // rebuilt in place: writes trail reads
	for _, e := range live {
		a := &u.alts[e.k]
		skip(a)
		if a.i < a.n || u.fill(a) {
			u.heap = append(u.heap, headEntry{t: a.buf[a.i], k: e.k})
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
// dropping those that fail the alternative's checks and those equal to the
// frame triple before them (an existential position the frame drops repeats
// it), and returns how many remain.
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
		if k > 0 && tris[k-1] == f {
			continue
		}
		tris[k] = f
		k++
	}
	return k
}

// less orders two frame triples in the leaf's order, on its variable
// columns.
func (u *unionCursor) less(s, t *store.Triple) bool {
	for _, c := range u.keys[:u.nkeys] {
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
		if r := l + 1; r < len(h) && u.less(&h[r].t, &h[l].t) {
			m = r
		}
		if !u.less(&h[m].t, &h[i].t) {
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
		u.start()
		u.refill(func(*altCursor) {})
	}
	if u.bits != nil {
		return u.nextBits(dst)
	}
	n := 0
	for n < len(dst) && len(u.heap) > 0 {
		top := &u.heap[0]
		if t := top.t; !u.any || t != u.last {
			dst[n] = t
			n++
			u.last, u.any = t, true
		}
		a := &u.alts[top.k]
		if a.i++; a.i < a.n || u.fill(a) {
			top.t = a.buf[a.i]
		} else {
			last := len(u.heap) - 1
			u.heap[0] = u.heap[last]
			u.heap = u.heap[:last]
		}
		u.down(0)
	}
	return n
}

// nextBits is NextBatch under the bitset merge: it emits the current
// window's set bits in order, clearing them, and fills the next window when
// they run out.
func (u *unionCursor) nextBits(dst []store.Triple) int {
	col, f := u.keys[0], store.Triple(u.frame)
	n := 0
	for n < len(dst) {
		if u.wi == u.wn && !u.window() {
			break
		}
		w := u.bits[u.wi]
		first := u.base + dict.ID(u.wi*64)
		for ; w != 0 && n < len(dst); n++ {
			f[col] = first + dict.ID(bits.TrailingZeros64(w))
			dst[n] = f
			w &= w - 1
		}
		if u.bits[u.wi] = w; w == 0 {
			u.wi++
		}
	}
	return n
}

// window fills the bitset with the next window, which starts at the
// smallest live head: the alternatives whose heads lie below the window's end
// leave the top of the heap in turn, set the bits of their keys below the
// end — refilling their buffers as they drain them — and sink back on their
// new heads, or leave the heap when their streams end. So a window costs a
// heap step per alternative it reads, not per triple. false when no
// alternative is left or the execution is canceled (a checkpoint per window:
// a window can read many buffers).
func (u *unionCursor) window() bool {
	if len(u.heap) == 0 || u.intr.stop() {
		return false
	}
	col, bs := u.keys[0], u.bits
	base := u.heap[0].t[col]
	end := base + windowBits
	wn := 0
	for len(u.heap) > 0 && u.heap[0].t[col] < end {
		top := &u.heap[0]
		a := &u.alts[top.k]
		for {
			tris := a.buf[a.i:a.n]
			j := 0
			for ; j < len(tris) && tris[j][col] < end; j++ {
				off := tris[j][col] - base
				bs[off>>6] |= 1 << (off & 63)
			}
			if j > 0 {
				wn = max(wn, int((tris[j-1][col]-base)>>6)+1)
			}
			if a.i += j; a.i < a.n {
				top.t = a.buf[a.i]
				break
			}
			if !u.fill(a) {
				last := len(u.heap) - 1
				u.heap[0] = u.heap[last]
				u.heap = u.heap[:last]
				break
			}
		}
		u.down(0)
	}
	u.base, u.wi, u.wn = base, 0, wn
	return true
}

// SeekGE skips every alternative past the frame triples whose value at the
// frame position col is below key. col is the first variable position of the
// leaf's order, as for a store cursor, so each alternative seeks on the
// position feeding it — the first variable position of its own order. Only a
// leaf that does not drive a scan is sought, so the heap merge runs.
func (u *unionCursor) SeekGE(col int, key dict.ID) {
	if !u.started {
		u.start()
	}
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
