package store

// Snapshot is an immutable point-in-time view of the whole store: every
// shard's published snapshot — both partition sides of a dual layout —
// pinned together and tagged with the store epoch they were captured at.
// Because shards publish immutable state through atomic pointers, capturing
// a Snapshot copies K (+ K object-side) pointers — no triples, no indexes —
// and the pinned state stays readable forever, regardless of later
// mutations, compactions or densifications.
//
// A Snapshot satisfies Reader, so queries planned and evaluated against it
// see exactly the store state of its epoch, with the same placement-routed
// shard pruning the live store has. This is the primitive the async view
// maintainer batches on: delta queries for a batch of updates run against
// the snapshot aligned with the batch boundary, never against a store that
// has raced ahead.
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

// Count returns the exact number of snapshot triples matching the pattern,
// answered from the pinned permutation indexes of the routed shard subset
// exactly like Store.Count.
func (s *Snapshot) Count(pat Pattern) int {
	pi, prefix := indexFor(pat)
	if prefix == nil {
		return s.Len()
	}
	n := 0
	for _, sn := range s.routeSnaps(s.Placement().Route(Perm(pi), pat)) {
		n += sn.count(pi, prefix)
	}
	return n
}

// Contains reports whether the exact triple is present in the snapshot: the
// lookup Store.Contains does, in the pinned SPO index of the owning shard.
func (s *Snapshot) Contains(t Triple) bool {
	return s.snaps[shardOfID(t[S], len(s.snaps))].find(SPO, t) >= 0
}

// NewCursor opens a cursor over the pinned snapshot, placement-routed to the
// minimal shard subset and recorded in the store's pruning ledger (see
// Store.NewCursor).
func (s *Snapshot) NewCursor(p Perm, pat Pattern) Cursor {
	r := s.Placement().Route(p, pat)
	sns := s.routeSnaps(r)
	s.st.prune.record(len(sns), r.K)
	return cursorOverSnaps(sns, p, pat)
}

// Scan visits every snapshot triple matching the pattern in the order of the
// chosen index, until fn returns false.
func (s *Snapshot) Scan(pat Pattern, fn func(Triple) bool) { scan(s, pat, fn) }

// Match returns all snapshot triples matching the pattern.
func (s *Snapshot) Match(pat Pattern) []Triple { return match(s, pat) }
