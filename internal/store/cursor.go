package store

import (
	"sort"

	"rdfviews/internal/dict"
)

// Cursor is a streaming iterator over the triples matching a pattern, in the
// sorted order of one permutation index. It is the scan primitive of the
// physical operator engine: a pattern whose bound positions form a prefix of
// the permutation is answered by binary-searched ranges; bound positions
// beyond the first wildcard are checked as residual filters.
//
// A cursor spanning several shards merges their streams, so triples arrive in
// global permutation order regardless of the shard count. Each shard's
// snapshot is pinned when the cursor is opened: concurrent Add/Remove calls
// never invalidate an open cursor — it keeps draining the state it was opened
// against (isolation is per shard; a multi-shard cursor pins each shard
// independently, in shard order).
type Cursor struct {
	subs     []subCursor
	order    [3]int
	residual [3]ID2 // residual equality checks: (column, value) pairs
	nres     int
}

// ID2 pairs a column with a required value for residual filtering.
type ID2 struct {
	Col int
	Val dict.ID
}

// subCursor streams one shard's snapshot: a buffered head (the stream's
// smallest unread triple, when live) followed by the remaining base range
// merged with the remaining overlay range, skipping tombstones. The base range
// is a run of positions from the permutation's index (base), or, for a base
// kept in place (the object side's POS), the positions lo..hi-1 themselves;
// the other of the two is empty. An order no side keeps (SOP, OPS) streams
// its derived run (snap.derived) as base, with no overlay.
type subCursor struct {
	sn     *snap
	base   []int32
	lo, hi int32
	delta  []int32
	head   Triple
	live   bool
}

// advance is the one per-shard step: it copies the stream's triples, in
// permutation order, into dst while they sort below bound (every one when
// last), stops when dst is full, and pops the following triple as the new
// head (live is false when none is left). A shard with no overlay positions
// left and no tombstones streams its base range as it lies — on the last
// live stream a flat gather (a flat copy from a base in place); only a dirty
// shard merges base and overlay and skips tombstones.
func (c *subCursor) advance(dst []Triple, bound Triple, last bool, order [3]int) int {
	tris := c.sn.triples
	base, lo, hi, delta, tomb := c.base, c.lo, c.hi, c.delta, c.sn.tomb
	n := 0
	if len(delta) == 0 && len(tomb) == 0 {
		if last && lo < hi {
			n = min(len(dst), int(hi-lo))
			for i, t := range tris[lo : lo+int32(n)] {
				dst[i] = t.wide()
			}
			lo += int32(n)
		} else if last {
			n = min(len(dst), len(base))
			for i, pos := range base[:n] {
				dst[i] = tris[pos].wide()
			}
			base = base[n:]
		}
		for ; lo < hi || len(base) > 0; n++ {
			var t Triple
			if lo < hi {
				t = tris[lo].wide()
				lo++
			} else {
				t = tris[base[0]].wide()
				base = base[1:]
			}
			if n == len(dst) || !(last || permLess(t, bound, order)) {
				c.base, c.lo, c.head, c.live = base, lo, t, true
				return n
			}
			dst[n] = t
		}
		c.base, c.lo, c.live = base, lo, false
		return n
	}
	for {
		// The base's next position: the run's in place, or the list's.
		next, more := lo, lo < hi
		if !more && len(base) > 0 {
			next, more = base[0], true
		}
		var pos int32
		switch {
		case !more && len(delta) == 0:
			c.base, c.lo, c.delta, c.live = base, lo, delta, false
			return n
		case !more || (len(delta) > 0 && permLess(tris[delta[0]], tris[next], order)):
			pos, delta = delta[0], delta[1:]
		case lo < hi:
			pos = lo
			lo++
		default:
			pos, base = base[0], base[1:]
		}
		if len(tomb) > 0 && tombHas(tomb, pos) {
			continue
		}
		t := tris[pos].wide()
		if n == len(dst) || !(last || permLess(t, bound, order)) {
			c.base, c.lo, c.delta, c.head, c.live = base, lo, delta, t, true
			return n
		}
		dst[n] = t
		n++
	}
}

// loadSnaps pins the current snapshot of each shard.
func (st *Store) loadSnaps(shards []*shard) []*snap {
	snaps := make([]*snap, len(shards))
	for i, sh := range shards {
		snaps[i] = sh.cur.Load()
	}
	return snaps
}

// cursorOverSnaps opens a cursor over a fixed set of pinned shard snapshots
// (Snapshot.NewCursor).
func cursorOverSnaps(snaps []*snap, p Perm, pat Pattern) Cursor {
	order := perms[p]
	var prefix []dict.ID
	k := 0
	for ; k < 3; k++ {
		if pat[order[k]] == Wildcard {
			break
		}
		prefix = append(prefix, pat[order[k]])
	}
	c := Cursor{order: order}
	for ; k < 3; k++ {
		if v := pat[order[k]]; v != Wildcard {
			c.residual[c.nres] = ID2{Col: order[k], Val: v}
			c.nres++
		}
	}
	c.subs = make([]subCursor, len(snaps))
	for i, s := range snaps {
		sub := &c.subs[i]
		sub.sn = s
		if sourceOf[p] != p {
			sub.base = s.derived(p, prefix)
			sub.advance(nil, Triple{}, true, order)
			continue
		}
		lo, hi := rangeIn(s.triples, s.base[p], order, prefix)
		sub.base = s.base[p][lo:hi]
		lo, hi = rangeRun(s.inPlace(p), order, prefix)
		sub.lo, sub.hi = int32(lo), int32(hi)
		lo, hi = rangeIn(s.triples, s.delta[p], order, prefix)
		sub.delta = s.delta[p][lo:hi]
		sub.advance(nil, Triple{}, true, order)
	}
	return c
}

// Next returns the next matching triple, in global permutation order: a
// one-triple NextBatch.
func (c *Cursor) Next() (Triple, bool) {
	var one [1]Triple
	if c.NextBatch(one[:]) == 0 {
		return Triple{}, false
	}
	return one[0], true
}

// NextBatch decodes up to len(dst) matching triples into dst and returns how
// many it wrote, in global permutation order. It is the amortized decode
// primitive of the engine's scans, one loop for every cursor: take the
// smallest shard head, then copy that shard's run for as long as it sorts
// below the smallest other live head (to the end of the batch when no other
// shard is live — a flat gather over the permutation index on a clean
// shard), and repeat. Each shard merges its base and overlay positions and
// skips tombstones only when it has any (subCursor.advance); residual
// filters compact the triples each run copied. Zero means EOF; a short
// non-zero batch is not EOF (callers keep pulling until zero).
func (c *Cursor) NextBatch(dst []Triple) int {
	order := c.order
	n := 0
	for n < len(dst) {
		best, next := -1, -1
		for i := range c.subs {
			if !c.subs[i].live {
				continue
			}
			switch {
			case best < 0 || permLess(c.subs[i].head, c.subs[best].head, order):
				best, next = i, best
			case next < 0 || permLess(c.subs[i].head, c.subs[next].head, order):
				next = i
			}
		}
		if best < 0 {
			break
		}
		sub := &c.subs[best]
		var bound Triple
		if next >= 0 {
			bound = c.subs[next].head
		}
		start := n
		dst[n] = sub.head
		n++
		n += sub.advance(dst[n:], bound, next < 0, order)
		if c.nres > 0 {
			n = start + c.filter(dst[start:n])
		}
	}
	return n
}

// filter compacts ts to the triples that pass the residual checks and
// returns how many remain.
func (c *Cursor) filter(ts []Triple) int {
	k := 0
	for _, t := range ts {
		ok := true
		for _, r := range c.residual[:c.nres] {
			if t[r.Col] != r.Val {
				ok = false
				break
			}
		}
		if ok {
			ts[k] = t
			k++
		}
	}
	return k
}

// SeekGE advances the cursor past every triple whose value at column col is
// below key, in O(log remaining) per shard stream. col must be the column the
// stream is sorted on — the first wildcard position of the cursor's
// permutation order — which is exactly the column a merge consumer skips on.
// Triples already streamed are unaffected; the next Next/NextBatch yields the
// first remaining triple with t[col] >= key (residual filters still apply).
func (c *Cursor) SeekGE(col int, key dict.ID) {
	for i := range c.subs {
		sub := &c.subs[i]
		if !sub.live || sub.head[col] >= key {
			continue // exhausted, or nothing to skip
		}
		tris := sub.sn.triples
		sub.lo += int32(sort.Search(int(sub.hi-sub.lo), func(i int) bool { return dict.ID(tris[sub.lo+int32(i)][col]) >= key }))
		sub.base = seekPositions(tris, sub.base, col, key)
		sub.delta = seekPositions(tris, sub.delta, col, key)
		sub.advance(nil, Triple{}, true, c.order)
	}
}

// seekPositions drops the prefix of pos whose triples sort below key at col.
// pos lists triple positions in permutation order with col the leading sort
// key of the remainder, so t[col] is non-decreasing along it.
func seekPositions(tris []packed, pos []int32, col int, key dict.ID) []int32 {
	lo := sort.Search(len(pos), func(i int) bool { return dict.ID(tris[pos[i]][col]) >= key })
	return pos[lo:]
}

// Remaining returns an upper bound on the triples left to stream (exact when
// the cursor has no residual filters and its snapshots hold no tombstones).
func (c *Cursor) Remaining() int {
	n := 0
	for i := range c.subs {
		n += len(c.subs[i].base) + int(c.subs[i].hi-c.subs[i].lo) + len(c.subs[i].delta)
		if c.subs[i].live {
			n++
		}
	}
	return n
}
