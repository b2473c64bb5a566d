package store

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rdfviews/internal/dict"
)

// packed is a stored triple: its three IDs in 32-bit columns, 12 bytes where
// a Triple takes 24. IDs are narrowed once, when a snapshot is built (the
// dictionary hands them out densely from 1, and Add and AddBatch reject any
// outside [0, math.MaxUint32]), and widened wherever a triple leaves the
// shard. Narrowing keeps the order, so stored triples sort and merge in
// packed form; a caller's key (a prefix, a seek key, a merge bound) is never
// narrowed, the stored side is widened to meet it.
type packed [3]uint32

func pack(t Triple) packed { return packed{uint32(t[S]), uint32(t[P]), uint32(t[O])} }

func (t packed) wide() Triple { return Triple{dict.ID(t[S]), dict.ID(t[P]), dict.ID(t[O])} }

// storable reports whether every ID of t fits a 32-bit column: a negative
// ID sets the sign bit, a wide one a bit above 31.
func storable(t Triple) bool { return uint64(t[S]|t[P]|t[O]) <= math.MaxUint32 }

// deltaMax bounds each permutation's sorted insert overlay and the tombstone
// count before they are merged into the base indexes. The merge is a linear
// two-way merge (never a re-sort), so maintenance costs O(overlay) per
// mutation plus an amortized O(N/deltaMax) share of each merge.
const deltaMax = 512

// snap is one immutable snapshot of a shard: the triple slice, a base index
// and a sorted insert overlay per permutation the shard's side keeps (the
// others stay nil), and the tombstones. Readers load a snapshot through an atomic pointer and operate on it
// lock-free; writers (serialized by the shard mutex) build a new snapshot
// that shares every unchanged part and publish it with a pointer swap.
//
// Positions index into triples. The triple slice is append-only within a
// snapshot lineage: a writer appends past the end of the newest snapshot's
// length, which older snapshots never read. Densification starts a fresh
// lineage.
//
// On either side of a dual layout every merge rewrites the slice in the
// side's first order (firstOrdered) — SPO on the subject side, POS on the
// object side — and its first sorted triples are that order's base index
// themselves: base[first] stays nil, and the base's k-th triple is at
// position k. On a flat layout sorted stays 0 and the slice stays in
// insertion order.
type snap struct {
	triples []packed
	sorted  int  // leading triples that are base[first] in place (dual layouts)
	first   Perm // the side's first order (membership; in place on a dual side)
	live    int  // triples minus tombstones

	// Tombstones live in two tiers, mirroring the insert overlays so a
	// delete costs O(overlay), not O(N). tomb is the small sorted list of
	// positions removed since the last threshold merge (copied on write,
	// bounded by deltaMax) — the only deadness base/delta entries can carry,
	// so index reads check just this list. dead is the cumulative bitmap of
	// holes folded in at compaction; it is never referenced by the indexes
	// and only consulted by whole-slice walks (liveTriples, stats,
	// densification).
	tomb []int32
	dead []uint64

	base  [6][]int32 // sorted positions, indexed by Perm; nil where not kept
	delta [6][]int32 // small sorted insert overlays, same order
}

// gone reports whether the position is tombstoned in either tier.
func (s *snap) gone(pos int32) bool {
	return isDead(s.dead, pos) || tombHas(s.tomb, pos)
}

// tombHas binary-searches the sorted tombstone overlay.
func tombHas(tomb []int32, pos int32) bool {
	i := sort.Search(len(tomb), func(k int) bool { return tomb[k] >= pos })
	return i < len(tomb) && tomb[i] == pos
}

// tombWith returns a fresh sorted overlay with pos added.
func tombWith(tomb []int32, pos int32) []int32 {
	i := sort.Search(len(tomb), func(k int) bool { return tomb[k] >= pos })
	out := make([]int32, len(tomb)+1)
	copy(out, tomb[:i])
	out[i] = pos
	copy(out[i+1:], tomb[i:])
	return out
}

// foldTomb folds the overlay into a (copied) cumulative bitmap over n
// positions.
func foldTomb(dead []uint64, tomb []int32, n int) []uint64 {
	if len(tomb) == 0 {
		return dead
	}
	nd := make([]uint64, (n+63)/64)
	copy(nd, dead)
	for _, pos := range tomb {
		nd[pos>>6] |= 1 << (uint(pos) & 63)
	}
	return nd
}

// allPerms, subjectPerms and objectPerms are the orders each side of a
// layout keeps, so that each kept order lives on exactly one side: a flat
// layout's one side keeps four; a dual layout's subject side SPO and PSO,
// its object side POS and OSP (see Placement.Route). No side keeps SOP or
// OPS: they differ from SPO and OSP only inside a run of equal leading
// column, so a read sorts the run it needs (snap.derived). A side's first
// order is its membership index: a triple's liveness and position are a
// full-prefix binary search in it. On a dual layout each side's first order,
// SPO or POS, is its triple slice itself (snap.sorted, keptInPlace).
var (
	allPerms     = []Perm{SPO, PSO, POS, OSP}
	subjectPerms = []Perm{SPO, PSO}
	objectPerms  = []Perm{POS, OSP}
)

// keptInPlace reports whether a side keeping held rewrites its triple slice
// in its first order at every merge: each side of a dual layout does; a flat
// layout's one side keeps insertion order, which datagen and the benchmark's
// inputs read back by index (Store.Triples).
func keptInPlace(held []Perm) bool { return len(held) < len(allPerms) }

// sourceOf maps each permutation to the kept order it is read from: itself
// when kept, SPO for SOP and OSP for OPS.
var sourceOf = [6]Perm{SPO, SPO, PSO, POS, OSP, OSP}

// shard is one hash partition of the store.
type shard struct {
	mu    sync.Mutex // serializes writers; readers only load cur
	perms []Perm     // the permutations this side keeps; perms[0] answers membership
	cur   atomic.Pointer[snap]
}

func newShard(held []Perm) *shard {
	sh := &shard{perms: held}
	sh.cur.Store(&snap{first: held[0]})
	return sh
}

func isDead(dead []uint64, pos int32) bool {
	w := int(pos >> 6)
	return w < len(dead) && dead[w]&(1<<(uint(pos)&63)) != 0
}

// permCmp three-way compares triples, stored or wide, by the permutation's
// column order. Distinct triples never compare equal (the three columns form
// a total key).
func permCmp[E uint32 | dict.ID](a, b [3]E, order [3]int) int {
	for _, c := range order {
		if a[c] != b[c] {
			return cmp.Compare(a[c], b[c])
		}
	}
	return 0
}

// permLess is permCmp < 0, spelled out: the merge loops and cursors call it
// per entry and the three-way form does not inline into them.
func permLess[E uint32 | dict.ID](a, b [3]E, order [3]int) bool {
	for _, c := range order {
		if a[c] != b[c] {
			return a[c] < b[c]
		}
	}
	return false
}

// prefixCmp three-way compares t's leading columns under the permutation
// order with the bound prefix.
func prefixCmp(t packed, order [3]int, prefix []dict.ID) int {
	for k, want := range prefix {
		if got := dict.ID(t[order[k]]); got != want {
			return cmp.Compare(got, want)
		}
	}
	return 0
}

// rangeIn returns the half-open [lo, hi) positions in idx whose triples match
// the bound prefix under the permutation order.
func rangeIn(triples []packed, idx []int32, order [3]int, prefix []dict.ID) (int, int) {
	lo := sort.Search(len(idx), func(i int) bool { return prefixCmp(triples[idx[i]], order, prefix) >= 0 })
	hi := sort.Search(len(idx), func(i int) bool { return prefixCmp(triples[idx[i]], order, prefix) > 0 })
	return lo, hi
}

// rangeRun is rangeIn over a run of triples sorted in place.
func rangeRun(run []packed, order [3]int, prefix []dict.ID) (int, int) {
	lo := sort.Search(len(run), func(i int) bool { return prefixCmp(run[i], order, prefix) >= 0 })
	hi := sort.Search(len(run), func(i int) bool { return prefixCmp(run[i], order, prefix) > 0 })
	return lo, hi
}

// inPlace returns the triples that are permutation p's base index in place:
// a dual side's sorted prefix for its first order, and nothing for any other
// permutation or on a flat layout (whose base is the position list base[p]).
func (s *snap) inPlace(p Perm) []packed {
	if p != s.first {
		return nil
	}
	return s.triples[:s.sorted]
}

// find returns the position of the live copy of t, or -1: a lower-bound
// search in permutation p's base index (a position list or a run in place),
// then in its overlay. A triple removed and re-added since the last merge has
// tombstoned copies next to the live one, so equal entries are walked until
// one is not in tomb.
func (s *snap) find(p Perm, t Triple) int32 {
	order := perms[p]
	// An in-place run holds each triple once: its merge dropped the
	// tombstoned copies.
	run := s.inPlace(p)
	k := sort.Search(len(run), func(k int) bool { return !permLess(run[k].wide(), t, order) })
	if k < len(run) && run[k].wide() == t && !tombHas(s.tomb, int32(k)) {
		return int32(k)
	}
	for _, idx := range [2][]int32{s.base[p], s.delta[p]} {
		i := sort.Search(len(idx), func(k int) bool { return !permLess(s.triples[idx[k]].wide(), t, order) })
		for ; i < len(idx) && s.triples[idx[i]].wide() == t; i++ {
			if !tombHas(s.tomb, idx[i]) {
				return idx[i]
			}
		}
	}
	return -1
}

// insert adds the batch's triples that are not live in the shard yet and
// returns them in batch order (ts itself when every one was new). Only the
// subject side inserts: it decides what a write changed, and the object side
// is handed exactly that (add).
func (sh *shard) insert(ts []Triple) []Triple {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.cur.Load()
	fresh, spo := s.novel(ts)
	if len(fresh) > 0 {
		sh.cur.Store(s.with(fresh, spo, sh.perms))
	}
	return fresh
}

// add appends triples the caller knows to be absent, with no membership test.
func (sh *shard) add(ts []Triple) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.cur.Store(sh.cur.Load().with(ts, nil, sh.perms))
}

// novel returns the batch's triples that are not live in the snapshot — first
// occurrences only, in batch order — and their indexes in SPO order. The sort
// that makes the batch's own duplicates adjacent is the SPO sort the overlay
// needs anyway; ties break on batch index so the first occurrence wins.
func (s *snap) novel(ts []Triple) ([]Triple, []int32) {
	by := make([]int32, len(ts))
	for i := range by {
		by[i] = int32(i)
	}
	slices.SortFunc(by, func(a, b int32) int {
		if c := permCmp(ts[a], ts[b], perms[SPO]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	rank := make([]int32, len(ts)) // index among the kept triples, -1 = dropped
	dropped := 0
	for k, i := range by {
		if (k > 0 && ts[by[k-1]] == ts[i]) || s.find(SPO, ts[i]) >= 0 {
			rank[i] = -1
			dropped++
		}
	}
	if dropped == 0 {
		return ts, by
	}
	fresh := make([]Triple, 0, len(ts)-dropped)
	for i, t := range ts {
		if rank[i] == 0 {
			rank[i] = int32(len(fresh))
			fresh = append(fresh, t)
		}
	}
	spo := by[:0]
	for _, i := range by {
		if rank[i] >= 0 {
			spo = append(spo, rank[i])
		}
	}
	return fresh, spo
}

// with returns the successor snapshot: fresh packed onto the triple slice (so
// positions follow batch order) and indexed under every held permutation. spo
// lists fresh's indexes in SPO order when the caller already sorted them. The
// new positions join the overlays. Only a batch that takes an overlay to
// deltaMax is merged on into the base indexes before anything is published
// (into an empty shard, the sorted batch becomes the base); a smaller one
// stays in the overlays, even a bulk load into an empty shard.
func (s *snap) with(fresh []Triple, spo []int32, held []Perm) *snap {
	first := int32(len(s.triples))
	tris := slices.Grow(s.triples, len(fresh))
	for _, t := range fresh {
		tris = append(tris, pack(t))
	}
	ns := *s
	ns.triples, ns.live = tris, s.live+len(fresh)
	sorted := sortedPositions(ns.triples, first, len(fresh), spo, held)
	for _, p := range held {
		ns.delta[p] = mergePositions(ns.triples, s.delta[p], sorted[p], perms[p])
	}
	if len(ns.delta[held[0]]) >= deltaMax {
		return compacted(&ns, false, held)
	}
	return &ns
}

// sortedPositions returns the n positions from first on, sorted under each
// held permutation, with one full comparison sort per leading column the side
// keeps: SPO (skipped when the caller's de-duplication already produced it)
// and OSP. PSO and POS are a stable distribution by P of SPO and OSP order.
func sortedPositions(triples []packed, first int32, n int, spo []int32, held []Perm) (out [6][]int32) {
	if n == 1 { // a single Add: every order is the same list, shared
		one := []int32{first}
		for _, p := range held {
			out[p] = one
		}
		return out
	}
	full := func(p Perm) []int32 {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = first + int32(i)
		}
		slices.SortFunc(idx, positionCmp(triples, p))
		return idx
	}
	if slices.Contains(held, SPO) {
		if spo == nil {
			spo = full(SPO)
		} else {
			for i := range spo {
				spo[i] += first
			}
		}
		out[SPO] = spo
		out[PSO] = distributedByP(triples, spo)
	}
	if slices.Contains(held, OSP) {
		out[OSP] = full(OSP)
		out[POS] = distributedByP(triples, out[OSP])
	}
	return out
}

// derived returns the positions of the snapshot's live triples that match
// the bound prefix under p, an order no side keeps (SOP or OPS), in p's
// order: its source's run for the bound leading column (every run when the
// column is free), base — a position list or a run in place — and overlay
// merged and tombstones dropped, each run of equal leading column re-sorted
// by p's other two columns.
func (s *snap) derived(p Perm, prefix []dict.ID) []int32 {
	src := sourceOf[p]
	order, lead := perms[src], prefix[:min(len(prefix), 1)]
	blo, bhi := rangeIn(s.triples, s.base[src], order, lead)
	base := s.base[src][blo:bhi]
	if rlo, rhi := rangeRun(s.inPlace(src), order, lead); rlo < rhi {
		base = make([]int32, rhi-rlo) // a side keeps src in place or as a list, not both
		for k := range base {
			base[k] = int32(rlo + k)
		}
	}
	dlo, dhi := rangeIn(s.triples, s.delta[src], order, lead)
	run := resortedRuns(s.triples, s.merged(base, s.delta[src][dlo:dhi], order, nil), p)
	lo, hi := rangeIn(s.triples, run, perms[p], prefix)
	return run[lo:hi]
}

// resortedRuns copies src — sorted by some permutation with p's leading
// column — and sorts each run of equal leading column by p's remaining two.
func resortedRuns(triples []packed, src []int32, p Perm) []int32 {
	lead, byP := perms[p][0], positionCmp(triples, p)
	out := slices.Clone(src)
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && triples[out[hi]][lead] == triples[out[lo]][lead] {
			hi++
		}
		slices.SortFunc(out[lo:hi], byP)
		lo = hi
	}
	return out
}

// positionCmp orders positions by their triples under permutation p.
func positionCmp(triples []packed, p Perm) func(a, b int32) int {
	order := perms[p]
	return func(a, b int32) int { return permCmp(triples[a], triples[b], order) }
}

// distributedByP stably distributes src by predicate: buckets in ascending P,
// each keeping src's order. Applied to SPO order that is PSO; to OSP, POS.
func distributedByP(triples []packed, src []int32) []int32 {
	next := make(map[uint32]int32) // P -> bucket size, then next free slot
	for _, pos := range src {
		next[triples[pos][P]]++
	}
	ps := make([]uint32, 0, len(next))
	for p := range next {
		ps = append(ps, p)
	}
	slices.Sort(ps)
	at := int32(0)
	for _, p := range ps {
		at, next[p] = at+next[p], at
	}
	out := make([]int32, len(src))
	for _, pos := range src {
		p := triples[pos][P]
		out[next[p]] = pos
		next[p]++
	}
	return out
}

// mergePositions linearly merges two position lists sorted by the same
// permutation; on ties a's entries come first. Either input is returned as is
// when the other is empty: lists are immutable once built, so snapshots may
// share them. A one-position b (every single Add) is spliced in at its
// binary-searched place instead, after its equals as the merge would put it.
func mergePositions(triples []packed, a, b []int32, order [3]int) []int32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	if len(b) == 1 {
		t := triples[b[0]]
		i := sort.Search(len(a), func(k int) bool { return permLess(t, triples[a[k]], order) })
		out := make([]int32, len(a)+1)
		copy(out, a[:i])
		out[i] = b[0]
		copy(out[i+1:], a[i:])
		return out
	}
	out := make([]int32, 0, len(a)+len(b))
	ai, bi := 0, 0
	for ai < len(a) && bi < len(b) {
		if permLess(triples[b[bi]], triples[a[ai]], order) {
			out = append(out, b[bi])
			bi++
		} else {
			out = append(out, a[ai])
			ai++
		}
	}
	out = append(out, a[ai:]...)
	return append(out, b[bi:]...)
}

// remove tombstones the triple in the small sorted overlay (copied so older
// snapshots keep reading their own state) and publishes the new snapshot.
func (sh *shard) remove(t Triple) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.cur.Load()
	pos := s.find(sh.perms[0], t)
	if pos < 0 {
		return false
	}
	ns := *s
	ns.live, ns.tomb = s.live-1, tombWith(s.tomb, pos)
	if len(ns.tomb) >= deltaMax {
		sh.cur.Store(compacted(&ns, false, sh.perms))
	} else {
		sh.cur.Store(&ns)
	}
	return true
}

// compacted merges each held permutation's overlay into its base index with a
// linear two-way merge, dropping tombstoned positions. When the holes outweigh
// the live triples (or force is set) it also densifies: the triple slice is
// rewritten without holes and positions are remapped. Each side of a dual
// layout rewrites its slice at every merge (firstOrdered).
func compacted(s *snap, force bool, held []Perm) *snap {
	if keptInPlace(held) {
		return firstOrdered(s, held)
	}
	holes := len(s.triples) - s.live
	densify := force || (holes > 0 && holes >= s.live)
	ns := &snap{first: s.first, live: s.live}
	var remap []int32
	if densify {
		remap = make([]int32, len(s.triples))
		nt := make([]packed, 0, s.live)
		for pos := range s.triples {
			if s.gone(int32(pos)) {
				remap[pos] = -1
				continue
			}
			remap[pos] = int32(len(nt))
			nt = append(nt, s.triples[pos])
		}
		ns.triples = nt
	} else {
		ns.triples = s.triples
		// Fold the overlay into the cumulative hole bitmap, for liveTriples
		// and a later densify; the rebuilt indexes reference no dead
		// positions, so reads stop checking.
		ns.dead = foldTomb(s.dead, s.tomb, len(s.triples))
	}
	for _, p := range held {
		ns.base[p] = s.merged(s.base[p], s.delta[p], perms[p], remap)
	}
	return ns
}

// firstOrdered is compacted for a side of a dual layout, whose triple slice
// is the base of its first order (SPO on the subject side, POS on the object
// side): the slice is rewritten as the linear merge of its sorted prefix and
// that order's overlay, dropping tombstoned positions, so the result is dense
// and in the first order, and the other held permutation is merged onto the
// new positions. The fresh slice has room for deltaMax appends, the most that
// arrive one at a time before the next merge rewrites it again.
func firstOrdered(s *snap, held []Perm) *snap {
	first := held[0]
	order := perms[first]
	run, delta := s.inPlace(first), s.delta[first]
	remap := make([]int32, len(s.triples))
	nt := make([]packed, 0, s.live+deltaMax)
	for k := 0; k < len(run) || len(delta) > 0; {
		var pos int32
		if len(delta) == 0 || (k < len(run) && !permLess(s.triples[delta[0]], run[k], order)) {
			pos = int32(k)
			k++
		} else {
			pos, delta = delta[0], delta[1:]
		}
		if tombHas(s.tomb, pos) {
			continue
		}
		remap[pos] = int32(len(nt))
		nt = append(nt, s.triples[pos])
	}
	ns := &snap{triples: nt, sorted: len(nt), first: first, live: s.live}
	for _, p := range held[1:] {
		ns.base[p] = s.merged(s.base[p], s.delta[p], perms[p], remap)
	}
	return ns
}

// merged linearly merges a run of one permutation's base with the run of its
// overlay (whole, when compacting), dropping tombstoned positions and
// applying the densification remap when present. Base and delta entries can
// only be deadened by the tomb overlay (bitmap holes were dropped when that
// bitmap was folded), so that is the one check. With neither tombstones nor
// a remap it may return base or delta itself.
func (s *snap) merged(base, delta []int32, order [3]int, remap []int32) []int32 {
	if len(s.tomb) == 0 && remap == nil {
		return mergePositions(s.triples, base, delta, order)
	}
	out := make([]int32, 0, min(s.live, len(base)+len(delta)))
	bi, di := 0, 0
	for bi < len(base) || di < len(delta) {
		var pos int32
		if di >= len(delta) ||
			(bi < len(base) && !permLess(s.triples[delta[di]], s.triples[base[bi]], order)) {
			pos = base[bi]
			bi++
		} else {
			pos = delta[di]
			di++
		}
		if tombHas(s.tomb, pos) {
			continue
		}
		if remap != nil {
			pos = remap[pos]
		}
		out = append(out, pos)
	}
	return out
}

// count returns the exact number of triples in the snapshot matching the
// bound prefix under permutation pi: the matching ranges of its base (a
// position list or a run in place) and overlay, less the tombstoned
// positions that fall in them. A tombstoned position stays in exactly one of
// base and overlay until the next merge clears tomb, so testing the at most
// deltaMax tombstones against the prefix is exact — O(log N + |tomb|) however
// long the range. An order no side keeps counts its source's run for the
// leading column (in place or in a list), entry by entry against the rest of
// the prefix: SOP's S,O-bound count walks the subject's SPO run, without
// sorting it.
func (s *snap) count(pi int, prefix []dict.ID) int {
	order, src := perms[pi], sourceOf[pi]
	lead := prefix // the source's bound prefix: all of it, or its leading column
	if src != Perm(pi) {
		lead = prefix[:min(len(prefix), 1)]
	}
	run := s.inPlace(src)
	lo, hi := rangeRun(run, perms[src], lead)
	n := hi - lo
	if src != Perm(pi) {
		n = 0
		for _, t := range run[lo:hi] {
			if prefixCmp(t, order, prefix) == 0 {
				n++
			}
		}
	}
	for _, idx := range [2][]int32{s.base[src], s.delta[src]} {
		lo, hi := rangeIn(s.triples, idx, perms[src], lead)
		if src == Perm(pi) {
			n += hi - lo
			continue
		}
		for _, pos := range idx[lo:hi] {
			if prefixCmp(s.triples[pos], order, prefix) == 0 {
				n++
			}
		}
	}
tombs:
	for _, pos := range s.tomb {
		for k, want := range prefix {
			if dict.ID(s.triples[pos][order[k]]) != want {
				continue tombs
			}
		}
		n--
	}
	return n
}

// liveTriples returns the snapshot's live triples, widened into a fresh
// slice, in position order: insertion order on a flat layout.
func (s *snap) liveTriples() []Triple {
	out := make([]Triple, 0, s.live)
	for pos, t := range s.triples {
		if !s.gone(int32(pos)) {
			out = append(out, t.wide())
		}
	}
	return out
}

// clone returns a fully independent copy of the shard: a densified snapshot
// sharing no backing arrays with the original, so both sides can keep
// mutating freely.
func (sh *shard) clone() *shard {
	n := &shard{perms: sh.perms}
	n.cur.Store(compacted(sh.cur.Load(), true, sh.perms))
	return n
}
