package store

import (
	"fmt"
	"slices"
	"sync/atomic"

	"rdfviews/internal/dict"
)

// Placement is the store's shard router: the one place that knows how triples
// are partitioned across shards and, therefore, which shards a given access
// must touch. Historically that knowledge was a hard-coded shardOf(subject)
// scattered through the store; the placement layer makes it an explicit value
// the query planner can consult, so pruning decisions (and their rendering in
// Explain) happen above the storage layer instead of inside it.
//
// The layout is dual-partitioned: every triple lives in a subject-hash shard
// (the historical side) and, when ObjectShards > 0, in an object-hash replica
// shard as well. Both sides are the same shard machinery — sorted
// permutations, insert/tombstone overlays, atomic snapshot publication — over
// different permutation sets, so that each kept order lives on exactly one
// side: the subject side keeps SPO and PSO and decides membership; the
// object side keeps POS and OSP and is never asked whether a triple exists.
// A flat layout's one side keeps all four. SOP and OPS stay readable: a read
// sorts the run it needs from SPO or OSP. Route names the side that keeps
// the access's permutation, or the order it is read from. What the dual side buys is access-side pruning: a
// subject-bound pattern touches exactly one subject shard, and an
// object-bound pattern touches exactly one object shard, instead of fanning
// out over all K subject partitions. Object-bound patterns are the dominant
// shape of reformulated union members (every ?s p o member of a relaxed
// query), which is why the replica is worth its memory — about 16 B a triple
// (the 12-byte stored triple, kept in POS order so that it is the POS index
// itself, and the OSP position) beside the subject side's 20: it turns the
// serving tier's O(K) fan-outs into O(1) lookups.
type Placement struct {
	// SubjectShards is the partition count of the subject-hash side (>= 1).
	SubjectShards int
	// ObjectShards is the partition count of the object-hash replica side;
	// 0 means the store is subject-partitioned only (the historical layout).
	ObjectShards int
}

// Dual reports whether the layout carries the object-hash replica side.
func (pl Placement) Dual() bool { return pl.ObjectShards > 0 }

// Side identifies one partition family of the dual layout.
type Side int

const (
	// SubjectSide is the subject-hash partition family (always present).
	SubjectSide Side = iota
	// ObjectSide is the object-hash replica family (present when Dual).
	ObjectSide
)

// String returns "subject" or "object".
func (s Side) String() string {
	if s == ObjectSide {
		return "object"
	}
	return "subject"
}

// Route is the minimal shard subset an access must touch: one side of the
// dual layout, and either a single shard on it (Shard >= 0) or the side's
// full fan-out (Shard < 0). K is the side's partition count, kept on the
// route so consumers (Explain's shards=m/K annotation, the pruning ledger)
// see the fan-out that was avoided.
type Route struct {
	Side  Side
	Shard int // single shard index on the side, or -1 for all of them
	K     int // the side's shard count
}

// Len returns the number of shards the route opens.
func (r Route) Len() int {
	if r.Shard >= 0 {
		return 1
	}
	return r.K
}

// String renders "side m/K", e.g. "object 1/8".
func (r Route) String() string {
	return fmt.Sprintf("%s %d/%d", r.Side, r.Len(), r.K)
}

// shardOfID hashes a dictionary ID onto one of k partitions (Fibonacci
// multiplicative hashing; the historical subject routing, now shared by both
// sides).
func shardOfID(id dict.ID, k int) int {
	if k <= 1 {
		return 0
	}
	h := uint64(id) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return int(h % uint64(k))
}

// Route maps a pattern, under the permutation chosen for its access path, to
// the minimal shard subset that serves it. Each kept order lives on one side
// (SPO and PSO on the subject side, POS and OSP on the object side of a dual
// layout; all four on a flat layout's one side), and SOP and OPS are read
// from SPO and OSP, so the route goes to the side that keeps the
// permutation or its source — SPO, SOP and PSO to the subject side, POS,
// OSP and OPS to the object side — and opens the one shard that owns the pattern when the side's
// partition column (S on the subject side, O on the object side) is bound,
// and all of the side's shards otherwise. The permutation PermFor or indexFor
// picks leads with the bound columns, so a bound S reaches its one subject
// shard, and a bound O with S free its one object shard.
//
// Routing depends only on the permutation and on which positions are bound,
// never on the constant values' hashes beyond picking the single shard — so a
// plan compiled over a parameterized pattern has a stable route *shape*, while
// the concrete shard index must be re-resolved once real constants are
// substituted (the plan cache instantiates routes per binding for exactly
// this reason).
func (pl Placement) Route(p Perm, pat Pattern) Route {
	side, k, col := SubjectSide, max(pl.SubjectShards, 1), S
	if pl.Dual() && slices.Contains(objectPerms, sourceOf[p]) {
		side, k, col = ObjectSide, pl.ObjectShards, O
	}
	if pat[col] == Wildcard {
		return Route{Side: side, Shard: -1, K: k}
	}
	return Route{Side: side, Shard: shardOfID(pat[col], k), K: k}
}

// PruneStats is the shard-pruning ledger: for every routed cursor open it
// accumulates how many shards were actually opened against the full fan-out
// of the routed side, so pruning effectiveness (1.0 = no pruning possible,
// 1/K = every open was a point route) is observable in production via /stats
// and rdfviews -cache-stats. All fields are atomics; concurrent readers
// record without locks.
type PruneStats struct {
	Opens        atomic.Int64 // routed cursor opens
	ShardsOpened atomic.Int64 // shards those opens actually touched
	ShardsTotal  atomic.Int64 // the routed sides' full fan-outs, summed
}

// record accumulates one routed open of opened shards on a side of total.
func (ps *PruneStats) record(opened, total int) {
	if ps == nil {
		return
	}
	ps.Opens.Add(1)
	ps.ShardsOpened.Add(int64(opened))
	ps.ShardsTotal.Add(int64(total))
}

// PruneSnapshot is a point-in-time copy of PruneStats for reporting; it
// marshals as the /stats shard_pruning payload.
type PruneSnapshot struct {
	Opens        int64 `json:"cursor_opens"`
	ShardsOpened int64 `json:"shards_opened"`
	ShardsTotal  int64 `json:"shards_total"`
}

// Snapshot reads the counters atomically (each field individually).
func (ps *PruneStats) Snapshot() PruneSnapshot {
	return PruneSnapshot{
		Opens:        ps.Opens.Load(),
		ShardsOpened: ps.ShardsOpened.Load(),
		ShardsTotal:  ps.ShardsTotal.Load(),
	}
}

// Ratio is shards opened over the unpruned fan-out: 1.0 means every open
// touched its side's full shard set, 1/K means every open was a point route.
// 0 when nothing was recorded.
func (s PruneSnapshot) Ratio() float64 {
	if s.ShardsTotal > 0 {
		return float64(s.ShardsOpened) / float64(s.ShardsTotal)
	}
	return 0
}

func (s PruneSnapshot) String() string {
	return fmt.Sprintf("opens=%d shards_opened=%d shards_total=%d open_ratio=%.2f",
		s.Opens, s.ShardsOpened, s.ShardsTotal, s.Ratio())
}
