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
	heads    []Triple
	valid    []bool
	order    [3]int
	residual [3]ID2 // residual equality checks: (column, value) pairs
	nres     int
}

// ID2 pairs a column with a required value for residual filtering.
type ID2 struct {
	Col int
	Val dict.ID
}

// subCursor streams one shard's snapshot: the remaining base range merged
// with the remaining overlay range, skipping tombstones.
type subCursor struct {
	sn    *snap
	base  []int32
	delta []int32
}

// next pops the sub-cursor's smallest remaining triple in permutation order.
func (c *subCursor) next(order [3]int) (Triple, bool) {
	for {
		var pos int32
		switch {
		case len(c.base) == 0 && len(c.delta) == 0:
			return Triple{}, false
		case len(c.delta) == 0:
			pos, c.base = c.base[0], c.base[1:]
		case len(c.base) == 0:
			pos, c.delta = c.delta[0], c.delta[1:]
		default:
			if permLess(c.sn.triples[c.delta[0]], c.sn.triples[c.base[0]], order) {
				pos, c.delta = c.delta[0], c.delta[1:]
			} else {
				pos, c.base = c.base[0], c.base[1:]
			}
		}
		if len(c.sn.tomb) > 0 && tombHas(c.sn.tomb, pos) {
			continue
		}
		return c.sn.triples[pos], true
	}
}

// NewCursor opens a cursor over permutation p for the pattern. The bound
// pattern positions that form a prefix of p's order are resolved by range
// lookup; any bound position after a wildcard (in permutation order) is
// filtered row-by-row. The triples stream in p's global sort order. The
// pattern is routed through the store's Placement, so a subject-bound
// pattern opens only its owning subject shard and — on a dual layout — an
// object-bound pattern opens only its owning object shard.
func (st *Store) NewCursor(p Perm, pat Pattern) Cursor {
	return st.RouteCursor(st.Placement().Route(p, pat), p, pat)
}

// RouteCursor opens a cursor merged over exactly the route's shards and
// records the open in the pruning ledger. The route must come from the
// store's own Placement (routes carry side/shard indexes, which only make
// sense against the layout that produced them).
func (st *Store) RouteCursor(r Route, p Perm, pat Pattern) Cursor {
	shs := st.routeShards(r)
	st.prune.record(len(shs), r.K)
	return cursorOverSnaps(st.loadSnaps(shs), p, pat)
}

// RouteShardCursor opens a cursor over the route's k-th shard only — the
// per-shard stream a scan walking its route reads, k = 0 … r.Len()-1. The
// whole walk is one logical routed open, so only the open of shard 0
// records it in the pruning ledger.
func (st *Store) RouteShardCursor(r Route, k int, p Perm, pat Pattern) Cursor {
	shs := st.routeShards(r)
	if k == 0 {
		st.prune.record(len(shs), r.K)
	}
	return cursorOverSnaps(st.loadSnaps(shs[k:k+1]), p, pat)
}

// loadSnaps pins the current snapshot of each shard.
func (st *Store) loadSnaps(shards []*shard) []*snap {
	snaps := make([]*snap, len(shards))
	for i, sh := range shards {
		snaps[i] = sh.cur.Load()
	}
	return snaps
}

// cursorOverSnaps opens a cursor over a fixed set of pinned shard snapshots —
// the shared implementation behind the live store's cursors and a Snapshot's.
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
	c.subs = make([]subCursor, 0, len(snaps))
	for _, s := range snaps {
		sub := subCursor{sn: s}
		lo, hi := rangeIn(s.triples, s.base[p], order, prefix)
		sub.base = s.base[p][lo:hi]
		lo, hi = rangeIn(s.triples, s.delta[p], order, prefix)
		sub.delta = s.delta[p][lo:hi]
		c.subs = append(c.subs, sub)
	}
	c.heads = make([]Triple, len(c.subs))
	c.valid = make([]bool, len(c.subs))
	for i := range c.subs {
		c.heads[i], c.valid[i] = c.subs[i].next(order)
	}
	return c
}

// Next returns the next matching triple, in global permutation order.
func (c *Cursor) Next() (Triple, bool) {
	for {
		var t Triple
		if len(c.subs) == 1 {
			if !c.valid[0] {
				return Triple{}, false
			}
			t = c.heads[0]
			c.heads[0], c.valid[0] = c.subs[0].next(c.order)
		} else {
			best := -1
			for i := range c.subs {
				if c.valid[i] && (best < 0 || permLess(c.heads[i], c.heads[best], c.order)) {
					best = i
				}
			}
			if best < 0 {
				return Triple{}, false
			}
			t = c.heads[best]
			c.heads[best], c.valid[best] = c.subs[best].next(c.order)
		}
		ok := true
		for i := 0; i < c.nres; i++ {
			if t[c.residual[i].Col] != c.residual[i].Val {
				ok = false
				break
			}
		}
		if ok {
			return t, true
		}
	}
}

// NextBatch decodes up to len(dst) matching triples into dst and returns how
// many it wrote, in the same global permutation order Next streams. It is the
// amortized decode primitive of the engine's vectorized scans. A cursor
// without residual filters decodes the whole batch in one tight loop instead
// of a per-triple call chain: when no shard stream has overlay positions or
// tombstones left (what a compacted or reopened store serves), a merge over
// the buffered heads that copies each shard's base run while it stays below
// the other heads — on one shard, a flat gather over the permutation index;
// on one dirty shard, an inlined base/overlay merge with tombstone skips. Any
// other cursor — residual filters, or several shards of which one is dirty —
// pulls through Next. Zero means EOF; a short non-zero batch is not EOF
// (callers keep pulling until zero).
func (c *Cursor) NextBatch(dst []Triple) int {
	if len(dst) == 0 {
		return 0
	}
	if c.nres == 0 && c.cleanSubs() {
		return c.mergeClean(dst)
	}
	if len(c.subs) == 1 && c.nres == 0 {
		if !c.valid[0] {
			return 0
		}
		// Merge base and overlay in permutation order, skipping tombstones —
		// subCursor.next's loop, amortized over the batch. The buffered head
		// is always the first triple of the batch.
		sub := &c.subs[0]
		dst[0] = c.heads[0]
		n := 1
		tris := sub.sn.triples
		base, delta := sub.base, sub.delta
		tomb := sub.sn.tomb
		order := c.order
		for n < len(dst) {
			var pos int32
			switch {
			case len(base) == 0 && len(delta) == 0:
				sub.base, sub.delta = base, delta
				c.valid[0] = false
				return n
			case len(delta) == 0:
				pos, base = base[0], base[1:]
			case len(base) == 0:
				pos, delta = delta[0], delta[1:]
			default:
				if permLess(tris[delta[0]], tris[base[0]], order) {
					pos, delta = delta[0], delta[1:]
				} else {
					pos, base = base[0], base[1:]
				}
			}
			if len(tomb) > 0 && tombHas(tomb, pos) {
				continue
			}
			dst[n] = tris[pos]
			n++
		}
		sub.base, sub.delta = base, delta
		c.heads[0], c.valid[0] = sub.next(c.order)
		return n
	}
	n := 0
	for n < len(dst) {
		t, ok := c.Next()
		if !ok {
			break
		}
		dst[n] = t
		n++
	}
	return n
}

// cleanSubs reports whether no shard stream has overlay positions left or
// tombstones to skip, so each streams its base range as it lies.
func (c *Cursor) cleanSubs() bool {
	for i := range c.subs {
		if len(c.subs[i].delta) > 0 || len(c.subs[i].sn.tomb) > 0 {
			return false
		}
	}
	return true
}

// mergeClean is NextBatch over clean shard streams: it takes the
// smallest buffered head, then copies that shard's base run for as long as it
// sorts below the smallest other live head (to its end when no other shard
// is live), and repeats.
func (c *Cursor) mergeClean(dst []Triple) int {
	order := c.order
	n := 0
	for n < len(dst) {
		best, next := -1, -1
		for i := range c.subs {
			if !c.valid[i] {
				continue
			}
			switch {
			case best < 0 || permLess(c.heads[i], c.heads[best], order):
				best, next = i, best
			case next < 0 || permLess(c.heads[i], c.heads[next], order):
				next = i
			}
		}
		if best < 0 {
			break
		}
		sub := &c.subs[best]
		tris, base := sub.sn.triples, sub.base
		dst[n] = c.heads[best]
		n++
		if next < 0 { // the last live stream: a flat gather
			m := min(len(dst)-n, len(base))
			for i, pos := range base[:m] {
				dst[n+i] = tris[pos]
			}
			n += m
			base = base[m:]
		}
		for n < len(dst) && len(base) > 0 {
			t := tris[base[0]]
			if !permLess(t, c.heads[next], order) {
				break
			}
			dst[n] = t
			n++
			base = base[1:]
		}
		if len(base) == 0 {
			sub.base = base
			c.valid[best] = false
			continue
		}
		c.heads[best], sub.base = tris[base[0]], base[1:]
	}
	return n
}

// SeekGE advances the cursor past every triple whose value at column col is
// below key, in O(log remaining) per shard stream. col must be the column the
// stream is sorted on — the first wildcard position of the cursor's
// permutation order — which is exactly the column a merge consumer skips on.
// Triples already streamed are unaffected; the next Next/NextBatch yields the
// first remaining triple with t[col] >= key (residual filters still apply).
func (c *Cursor) SeekGE(col int, key dict.ID) {
	for i := range c.subs {
		if c.valid[i] && c.heads[i][col] >= key {
			continue
		}
		sub := &c.subs[i]
		if !c.valid[i] && len(sub.base) == 0 && len(sub.delta) == 0 {
			continue // exhausted stream: nothing to skip
		}
		tris := sub.sn.triples
		sub.base = seekPositions(tris, sub.base, col, key)
		sub.delta = seekPositions(tris, sub.delta, col, key)
		c.heads[i], c.valid[i] = sub.next(c.order)
	}
}

// seekPositions drops the prefix of pos whose triples sort below key at col.
// pos lists triple positions in permutation order with col the leading sort
// key of the remainder, so t[col] is non-decreasing along it.
func seekPositions(tris []Triple, pos []int32, col int, key dict.ID) []int32 {
	lo := sort.Search(len(pos), func(i int) bool { return tris[pos[i]][col] >= key })
	return pos[lo:]
}

// Remaining returns an upper bound on the triples left to stream (exact when
// the cursor has no residual filters and its snapshots hold no tombstones).
func (c *Cursor) Remaining() int {
	n := 0
	for i := range c.subs {
		n += len(c.subs[i].base) + len(c.subs[i].delta)
		if c.valid[i] {
			n++
		}
	}
	return n
}
