package store

import "rdfviews/internal/dict"

// Snapshot is an immutable point-in-time view of the whole store: every
// shard's published snapshot — both partition sides of a dual layout —
// pinned together and tagged with the store epoch they were captured at.
// Because shards publish immutable state through atomic pointers, capturing
// a Snapshot copies K (+ K object-side) pointers — no triples, no indexes —
// and the pinned state stays readable forever, regardless of later
// mutations, compactions or densifications.
//
// A Snapshot is the store's one Reader implementation, so queries planned
// and evaluated against it see exactly the store state of its epoch, with
// placement-routed shard pruning. Every read pins one: the async view
// maintainer's delta queries run against the snapshot aligned with the batch
// boundary, never against a store that has raced ahead, and an answer, a
// materialization or a statistics provider reads one snapshot throughout.
//
// Consistency across shards is the caller's concern: a Snapshot captured
// while writers are mid-flight pins each shard independently (the same
// per-shard isolation a multi-shard Cursor has always had, now spanning both
// sides of the dual layout). Callers that need a cross-shard-consistent cut
// (the maintainer) capture under their own write serialization.
type Snapshot struct {
	st     *Store
	snaps  []*snap // pinned subject-side shards
	osnaps []*snap // pinned object-side shards (dual layouts)
	epoch  uint64
}

var _ Reader = (*Snapshot)(nil)

// Snapshot pins the current state of every shard on both sides. The epoch
// tag is read before the shard pointers, so under concurrent writers it is a
// lower bound on the pinned state; captured under the caller's write
// serialization it is exact.
func (st *Store) Snapshot() *Snapshot {
	s := &Snapshot{st: st, epoch: st.epoch.Load()}
	s.snaps = st.loadSnaps(st.shards)
	if len(st.oshards) > 0 {
		s.osnaps = st.loadSnaps(st.oshards)
	}
	return s
}

// Epoch returns the store epoch the snapshot was captured at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumShards returns the number of subject-side hash partitions.
func (s *Snapshot) NumShards() int { return len(s.snaps) }

// Placement returns the shard router of the snapshot's layout.
func (s *Snapshot) Placement() Placement {
	return Placement{SubjectShards: len(s.snaps), ObjectShards: len(s.osnaps)}
}

// routeSnaps resolves a route to the pinned snapshots it opens.
func (s *Snapshot) routeSnaps(r Route) []*snap {
	side := s.snaps
	if r.Side == ObjectSide {
		side = s.osnaps
	}
	if r.Shard >= 0 {
		return side[r.Shard : r.Shard+1]
	}
	return side
}

// Len returns the number of distinct triples in the snapshot.
func (s *Snapshot) Len() int {
	n := 0
	for _, sn := range s.snaps {
		n += sn.live
	}
	return n
}

// Count returns the exact number of snapshot triples matching the pattern.
// This is the primitive behind the paper's statistics: exact counts for atoms
// with 0, 1, or 2 constants (and 3, although 3-constant atoms are disallowed
// in views). The pattern is routed through the Placement: a subject-bound
// pattern is answered by one pinned subject shard, an object-bound pattern
// (on a dual layout) by one object shard; otherwise one side's per-shard
// counts are added up. It allocates nothing: an S,O-bound count walks the
// subject's SPO run (snap.count).
func (s *Snapshot) Count(pat Pattern) int {
	pi, bound := indexFor(pat)
	if bound == 0 {
		return s.Len()
	}
	var key [3]dict.ID
	prefix := key[:bound]
	for k := range prefix {
		prefix[k] = pat[perms[pi][k]]
	}
	n := 0
	for _, sn := range s.routeSnaps(s.Placement().Route(Perm(pi), pat)) {
		n += sn.count(pi, prefix)
	}
	return n
}

// Contains reports whether the exact triple is present in the snapshot: a
// full-prefix binary search in the pinned SPO index of the owning shard.
func (s *Snapshot) Contains(t Triple) bool {
	return s.snaps[shardOfID(t[S], len(s.snaps))].find(SPO, t) >= 0
}

// NewCursor opens a cursor over permutation p for the pattern on the pinned
// snapshot. The bound pattern positions that form a prefix of p's order are
// resolved by range lookup; any bound position after a wildcard (in
// permutation order) is filtered row-by-row. The triples stream in p's global
// sort order. The pattern is routed through the Placement, so a
// subject-bound pattern opens only its owning subject shard and — on a dual
// layout — an object-bound pattern opens only its owning object shard; the
// open is recorded in the store's pruning ledger.
func (s *Snapshot) NewCursor(p Perm, pat Pattern) Cursor {
	r := s.Placement().Route(p, pat)
	sns := s.routeSnaps(r)
	s.st.prune.record(len(sns), r.K)
	return cursorOverSnaps(sns, p, pat)
}

// Scan visits every snapshot triple matching the pattern in the order of the
// index indexFor picks for it, until fn returns false. It drains that index's
// cursor a batch at a time.
func (s *Snapshot) Scan(pat Pattern, fn func(Triple) bool) {
	pi, _ := indexFor(pat)
	c := s.NewCursor(Perm(pi), pat)
	var buf [64]Triple
	for {
		n := c.NextBatch(buf[:])
		if n == 0 {
			return
		}
		for _, t := range buf[:n] {
			if !fn(t) {
				return
			}
		}
	}
}

// Match returns all snapshot triples matching the pattern.
func (s *Snapshot) Match(pat Pattern) []Triple {
	out := make([]Triple, 0, 16)
	s.Scan(pat, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// columnStats returns the per-column statistics (distinct count, average
// lexical width) of the snapshot's triples. They are computed over the pinned
// subject-side shards and cached on the store by epoch, so every snapshot of
// one epoch shares one computation; a snapshot of another epoch recomputes
// and replaces them. The copy is returned while the lock is held, so a
// concurrent recomputation never tears a reader.
func (s *Snapshot) columnStats() [3]columnStats {
	st := s.st
	st.statsMu.Lock()
	defer st.statsMu.Unlock()
	if st.statsAt == s.epoch+1 {
		return st.colStats
	}
	for c := 0; c < 3; c++ {
		set := make(map[dict.ID]struct{})
		var totalLen int
		for _, sn := range s.snaps {
			for pos, t := range sn.triples {
				if sn.gone(int32(pos)) {
					continue
				}
				id := dict.ID(t[c])
				if _, ok := set[id]; !ok {
					set[id] = struct{}{}
					totalLen += len(st.dict.MustDecode(id).Value)
				}
			}
		}
		cs := columnStats{distinct: len(set), avgLen: 8}
		if len(set) > 0 {
			cs.avgLen = float64(totalLen) / float64(len(set))
		}
		st.colStats[c] = cs
	}
	st.statsAt = s.epoch + 1
	return st.colStats
}

// DistinctCount returns the number of distinct values in the column.
func (s *Snapshot) DistinctCount(col int) int { return s.columnStats()[col].distinct }

// AvgWidth returns the average lexical width, in bytes, of the distinct
// values in the column — the "average size of a subject, property,
// respectively object" of Section 3.3.
func (s *Snapshot) AvgWidth(col int) float64 { return s.columnStats()[col].avgLen }
