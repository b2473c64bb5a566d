// Package store implements the dictionary-encoded, fully indexed triple table
// that the paper uses as its storage layout (Section 6, "Platform and data
// layout") — grown from a single monolithic table into a hash-partitioned,
// incrementally maintained shard set:
//
//   - Triples are routed to K shards by a hash of their subject (K is chosen
//     at construction; K=1 is the degenerate single-table layout and the
//     default). All triples sharing a subject land in the same shard, so
//     subject-bound lookups touch exactly one shard while unbound scans
//     read all of them, merged into one ordered stream (Cursor).
//   - Optionally the layout is dual-partitioned: NewDual adds a second family
//     of shards holding object-hash-partitioned replicas of every triple, so
//     object-bound patterns (the dominant shape of reformulated union
//     members) also prune to one shard instead of fanning out over all K
//     subject partitions. Shard addressing is owned by the Placement router
//     (placement.go): every read maps a (Perm, Pattern) pair to the minimal
//     shard subset of one side, and a PruneStats ledger records shards
//     opened versus the fan-out avoided. The subject side decides what a
//     write changes; the object side is handed exactly those triples and
//     never tests membership itself.
//   - All six sorted permutations of the triples (SPO, SOP, PSO, POS, OSP,
//     OPS — the Hexastore scheme of [23]) are readable, and four of them are
//     kept, each on exactly one side. Together they provide exact counts for
//     any triple pattern with 0–3 constants (the statistics primitive of
//     Section 3.3) and ordered prefix range scans. A flat layout's shards
//     keep SPO, PSO, POS and OSP; on a dual layout a subject shard keeps SPO
//     and PSO and an object shard POS and OSP. SOP and OPS differ from SPO
//     and OSP only inside a run of equal leading column, so no side stores
//     them: a read takes the bound subject's SPO run (or object's OSP run),
//     sorts it by the other two columns and streams it, and an S,O-bound
//     count walks the subject's run without sorting. Placement.Route sends
//     each access to the side that keeps its permutation or that
//     permutation's source.
//   - There is no membership structure beside the indexes: whether a triple
//     is stored, and at which position, is a full-prefix binary search in the
//     shard's leading permutation (SPO; POS on the object side). A shard
//     stores each triple's IDs in 32-bit columns and widens them as they are
//     read, so resident cost is the 12-byte stored triple plus 4 bytes per
//     position list: 28 B a triple on a flat layout. Each side of a dual
//     layout rewrites its triple slice in its first order at every threshold
//     merge — SPO on the subject side, POS on the object side — so that
//     order's index is the slice itself and a triple costs each side 16 B.
//     Triples, ShardTriples and Graph hand out a dual layout's subject
//     shards in SPO order and a flat layout's shards in insertion order. An
//     ID must stay below 2^32 to be stored.
//   - Index maintenance is incremental. Instead of marking the store dirty
//     and re-sorting every permutation on the next read (O(N log N) per
//     touched batch), an insert goes into a small sorted delta overlay per
//     permutation and a delete sets a tombstone bit; overlays and tombstones
//     are merged into the base indexes once they pass a threshold, by a
//     linear merge that never re-sorts. A batch — one triple or a whole
//     load — is sorted in full once per leading column its side keeps (SPO,
//     OSP or both); PSO and POS are distributed by P from those orders.
//   - Readers are lock-free: every shard publishes an immutable snapshot
//     (triples, base indexes, delta overlays, tombstones) through an atomic
//     pointer. Counts, scans and cursors operate on the snapshot they were
//     opened against, so mutations never invalidate an open cursor — each
//     cursor drains a consistent per-shard snapshot even while concurrent
//     writers insert and delete (snapshot isolation is per shard: a cursor
//     spanning shards pins each shard's snapshot at open time).
//
// The store is in-memory. Triples are deduplicated (the paper's Barton
// dataset was cleaned of duplicates before use).
package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
)

// Triple is a dictionary-encoded RDF triple: [s, p, o].
type Triple [3]dict.ID

// Pattern is a triple pattern: each position holds a constant ID or Wildcard.
type Pattern [3]dict.ID

// Wildcard marks an unconstrained position in a Pattern.
const Wildcard dict.ID = 0

// Column indexes into triples and patterns.
const (
	S = 0
	P = 1
	O = 2
)

// ColumnName returns "s", "p" or "o".
func ColumnName(c int) string {
	switch c {
	case S:
		return "s"
	case P:
		return "p"
	case O:
		return "o"
	}
	return fmt.Sprintf("col%d", c)
}

// Perm identifies one of the six sorted permutations (the Hexastore scheme):
// the order in which a triple's columns are compared. Every permutation is
// readable; SPO, PSO, POS and OSP are kept as indexes, and SOP and OPS are
// sorted at read time from the SPO and OSP runs of their leading column.
type Perm int

// The six permutations, in the fixed index order.
const (
	SPO Perm = iota
	SOP
	PSO
	POS
	OSP
	OPS
)

// The six permutations, in the fixed order used by indexFor.
var perms = [6][3]int{
	{S, P, O}, // SPO
	{S, O, P}, // SOP
	{P, S, O}, // PSO
	{P, O, S}, // POS
	{O, S, P}, // OSP
	{O, P, S}, // OPS
}

// Order returns the column comparison order of the permutation.
func (p Perm) Order() [3]int { return perms[p] }

// String returns the conventional name, e.g. "POS".
func (p Perm) String() string {
	if p < 0 || int(p) >= len(perms) {
		return fmt.Sprintf("Perm(%d)", int(p))
	}
	o := perms[p]
	return ColumnName(o[0]) + ColumnName(o[1]) + ColumnName(o[2])
}

// PermFor returns a permutation whose leading columns are exactly the bound
// columns of the set (in some order) and whose next column is then (when then
// is a column not in bound). Because all six orders are readable, such a
// permutation always exists; pass then < 0 to accept any column after the
// bound prefix. It returns SOP only with S bound and OPS only with O bound,
// so their read sorts one subject's or one object's run.
// The second result reports success; it is false only when the arguments are
// inconsistent (then listed as bound, or more than three columns).
func PermFor(bound []int, then int) (Perm, bool) {
	var isBound [3]bool
	for _, c := range bound {
		if c < 0 || c > 2 || isBound[c] {
			return SPO, false
		}
		isBound[c] = true
	}
	if then >= 0 && (then > 2 || isBound[then]) {
		return SPO, false
	}
	for pi, perm := range perms {
		ok := true
		for k := 0; k < len(bound); k++ {
			if !isBound[perm[k]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if then >= 0 && len(bound) < 3 && perm[len(bound)] != then {
			continue
		}
		return Perm(pi), true
	}
	return SPO, false
}

// MaxShards caps the shard count of either side; beyond this, per-shard
// overheads (cursor merging, snapshot bookkeeping) outweigh what pruning and
// per-shard maintenance save.
const MaxShards = 256

// Reader is the read-only query surface the query engine scans and counts
// through. Its one implementation is the immutable *Snapshot: code that reads
// (planning, evaluation, delta propagation, statistics) pins one with
// Store.Snapshot and reads one store state however long it runs. *Store
// satisfies Reader only by pinning a snapshot per call (see Store.Count).
type Reader interface {
	// NumShards returns the number of subject-side hash partitions.
	NumShards() int
	// Placement returns the shard router describing the partition layout.
	// The engine consults it for the minimal shard subset (Route) Explain
	// annotates.
	Placement() Placement
	// Len returns the number of distinct live triples.
	Len() int
	// Count returns the exact number of triples matching the pattern.
	Count(pat Pattern) int
	// Contains reports whether the exact triple is present.
	Contains(t Triple) bool
	// NewCursor opens an ordered prefix-range cursor merged over the
	// pattern's placement route (see Snapshot.NewCursor).
	NewCursor(p Perm, pat Pattern) Cursor
	// Scan visits every triple matching the pattern in index order until fn
	// returns false (see Snapshot.Scan).
	Scan(pat Pattern, fn func(Triple) bool)
}

// Store is the sharded triple table plus its dictionary. Create with New (one
// shard) or NewSharded (K shards), add triples, then query; indexes are
// maintained incrementally on every mutation.
type Store struct {
	dict   *dict.Dictionary
	shards []*shard // subject-hash partitions (always present)

	// oshards are the object-hash replica partitions of the dual layout
	// (empty for subject-only stores). Every triple is written to its
	// subject shard and, when the dual side exists, to its object shard;
	// reads touch exactly one side, chosen by the Placement router, so the
	// replica never double-counts.
	oshards []*shard

	// prune is the shard-pruning ledger every routed cursor open records
	// into; shared with the store's Snapshots.
	prune PruneStats

	// epoch counts successful mutations (one per triple added or removed).
	// Snapshots are tagged with the epoch they were captured at, giving the
	// async view maintainer its freshness ordering.
	epoch atomic.Uint64

	// colStats are the per-column statistics a Snapshot last computed,
	// cached for every snapshot of the same epoch (Snapshot.columnStats).
	statsMu  sync.Mutex
	statsAt  uint64 // epoch+1 of the snapshot that computed them; 0 = never
	colStats [3]columnStats
}

var _ Reader = (*Store)(nil)

type columnStats struct {
	distinct int
	avgLen   float64
}

// New returns an empty single-shard store with a fresh dictionary.
func New() *Store {
	return NewWithDict(dict.New())
}

// NewWithDict returns an empty single-shard store sharing an existing
// dictionary, so its triples are ID-compatible with other stores over the
// same dictionary (saturated copies, restricted copies, ...).
func NewWithDict(d *dict.Dictionary) *Store {
	return NewWithDictSharded(d, 1)
}

// NewSharded returns an empty store hash-partitioned across k shards (by
// subject). k is clamped to [1, 256]. With k=1 the store behaves exactly like
// the historical single-table layout.
func NewSharded(k int) *Store {
	return NewWithDictSharded(dict.New(), k)
}

// NewWithDictSharded is NewSharded over an existing dictionary.
func NewWithDictSharded(d *dict.Dictionary, k int) *Store {
	return NewWithDictDual(d, k, 0)
}

// NewDual returns an empty dual-partitioned store: subjectK subject-hash
// shards plus objectK object-hash replica shards, so both subject-bound and
// object-bound patterns prune to a single shard. objectK = 0 degenerates to
// the subject-only layout, whose shards keep four permutations (28 B a
// triple). On a dual layout each kept permutation lives on one side: the
// subject side keeps SPO and PSO, its SPO index being its triple slice
// (16 B a triple), the object side holds every triple again with POS and
// OSP, its POS index being its triple slice (16 B). SOP and OPS are read
// from SPO and OSP on either layout. The second copy of the triple is the
// trade the serving tier makes to turn O(K) fan-outs into O(1) lookups on
// both access sides.
func NewDual(subjectK, objectK int) *Store {
	return NewWithDictDual(dict.New(), subjectK, objectK)
}

// NewWithDictDual is NewDual over an existing dictionary. Shard counts are
// clamped to [1, 256] (subject) and [0, 256] (object).
func NewWithDictDual(d *dict.Dictionary, subjectK, objectK int) *Store {
	if subjectK < 1 {
		subjectK = 1
	}
	if subjectK > MaxShards {
		subjectK = MaxShards
	}
	if objectK < 0 {
		objectK = 0
	}
	if objectK > MaxShards {
		objectK = MaxShards
	}
	st := &Store{dict: d, shards: make([]*shard, subjectK)}
	held := allPerms
	if objectK > 0 {
		held = subjectPerms
	}
	for i := range st.shards {
		st.shards[i] = newShard(held)
	}
	if objectK > 0 {
		st.oshards = make([]*shard, objectK)
		for i := range st.oshards {
			st.oshards[i] = newShard(objectPerms)
		}
	}
	return st
}

// Dict returns the store's dictionary.
func (st *Store) Dict() *dict.Dictionary { return st.dict }

// NumShards returns the number of subject-side hash partitions.
func (st *Store) NumShards() int { return len(st.shards) }

// Placement returns the store's shard router.
func (st *Store) Placement() Placement {
	return Placement{SubjectShards: len(st.shards), ObjectShards: len(st.oshards)}
}

// PruneStats returns the shard-pruning ledger: every routed cursor open
// (serial or fanned out) records shards opened versus the routed side's full
// fan-out. Shared with the store's Snapshots.
func (st *Store) PruneStats() *PruneStats { return &st.prune }

// shardOf routes a subject ID to its subject-side shard.
func (st *Store) shardOf(s dict.ID) int { return shardOfID(s, len(st.shards)) }

// Len returns the number of distinct triples.
func (st *Store) Len() int {
	n := 0
	for _, sh := range st.shards {
		n += sh.cur.Load().live
	}
	return n
}

// idRangePanic is what Add and AddBatch panic with when a triple holds an ID
// outside [0, 2^32-1]: stored columns are 32 bits wide. The dictionary hands
// IDs out densely from 1, so only a caller-made ID can get there, and the
// store is left unchanged.
const idRangePanic = "store: triple ID outside [0, 2^32-1] cannot be stored"

// Add inserts an encoded triple, ignoring duplicates. It reports whether the
// triple was new. The shard's permutation indexes are updated incrementally.
// Every ID must lie in [0, 2^32-1]; otherwise Add panics with
// "store: triple ID outside [0, 2^32-1] cannot be stored" and stores nothing.
// On a dual layout the triple is written to its subject shard first, then to
// its object replica shard: the sides publish independently, so a concurrent
// reader routed to the object side may briefly miss a triple the subject
// side already serves — the same per-shard relaxation multi-shard cursors
// have always had (each side is individually snapshot-consistent). For the
// same reason callers serialize writes of one triple (the maintainer's writer
// mutex does): the object side applies what it is handed in arrival order.
func (st *Store) Add(t Triple) bool {
	if !storable(t) {
		panic(idRangePanic)
	}
	one := []Triple{t}
	if len(st.shards[st.shardOf(t[S])].insert(one)) == 0 {
		return false
	}
	if k := len(st.oshards); k > 0 {
		st.oshards[shardOfID(t[O], k)].add(one)
	}
	st.epoch.Add(1)
	return true
}

// AddBatch inserts many triples at once, ignoring duplicates (of stored
// triples and inside the batch), and returns the number added. Batching
// amortizes the per-mutation index maintenance: each shard sorts the whole
// batch once per leading column and merges it in one step. The object side is
// handed the triples the subject side reported new, grouped by object shard.
// The whole batch is checked before any shard is touched: one ID outside
// [0, 2^32-1] panics as Add does and stores none of the batch.
func (st *Store) AddBatch(ts []Triple) int {
	for _, t := range ts {
		if !storable(t) {
			panic(idRangePanic)
		}
	}
	if len(ts) == 0 {
		return 0
	}
	var added []Triple
	if len(st.shards) == 1 {
		added = st.shards[0].insert(ts)
	} else {
		for i, g := range groupByShard(ts, S, len(st.shards)) {
			if len(g) > 0 {
				added = append(added, st.shards[i].insert(g)...)
			}
		}
	}
	if len(added) == 0 {
		return 0
	}
	if k := len(st.oshards); k > 0 {
		for i, g := range groupByShard(added, O, k) {
			if len(g) > 0 {
				st.oshards[i].add(g)
			}
		}
	}
	st.epoch.Add(uint64(len(added)))
	return len(added)
}

// groupByShard splits the triples by the hash of column col over k shards,
// keeping their order inside each group.
func groupByShard(ts []Triple, col, k int) [][]Triple {
	groups := make([][]Triple, k)
	for _, t := range ts {
		i := shardOfID(t[col], k)
		groups[i] = append(groups[i], t)
	}
	return groups
}

// Remove deletes a triple, reporting whether it was present. The triple is
// tombstoned in its shard's snapshot and physically dropped from the indexes
// at the next threshold merge.
func (st *Store) Remove(t Triple) bool {
	if !st.shards[st.shardOf(t[S])].remove(t) {
		return false
	}
	if k := len(st.oshards); k > 0 {
		st.oshards[shardOfID(t[O], k)].remove(t)
	}
	st.epoch.Add(1)
	return true
}

// Epoch returns the store's mutation counter: it advances by one for every
// triple successfully added or removed. Snapshots carry the epoch they were
// captured at.
func (st *Store) Epoch() uint64 { return st.epoch.Load() }

// Encode encodes an rdf.Triple with the store's dictionary.
func (st *Store) Encode(t rdf.Triple) Triple {
	return Triple{st.dict.Encode(t.S), st.dict.Encode(t.P), st.dict.Encode(t.O)}
}

// AddGraph loads an rdf.Graph, validating well-formedness. It returns the
// number of new (non-duplicate) triples added.
func (st *Store) AddGraph(g rdf.Graph) (int, error) {
	batch := make([]Triple, 0, len(g))
	for _, t := range g {
		if err := t.Validate(); err != nil {
			// Triples before the invalid one are loaded, matching the
			// historical per-triple behavior.
			return st.AddBatch(batch), err
		}
		batch = append(batch, st.Encode(t))
	}
	return st.AddBatch(batch), nil
}

// MustAddGraph is AddGraph panicking on invalid triples; for tests/examples.
func (st *Store) MustAddGraph(g rdf.Graph) int {
	n, err := st.AddGraph(g)
	if err != nil {
		panic(err)
	}
	return n
}

// Triples returns the distinct triples in a fresh slice the caller owns,
// grouped by subject shard, each shard's section in the order ShardTriples
// hands it out.
func (st *Store) Triples() []Triple {
	if len(st.shards) == 1 {
		return st.ShardTriples(0)
	}
	out := make([]Triple, 0, st.Len())
	for i := range st.shards {
		out = append(out, st.ShardTriples(i)...)
	}
	return out
}

// ShardTriples returns subject shard i's distinct triples: in SPO order on a
// dual layout, whose subject side keeps its slice in that order, and in
// insertion order on a flat layout, which datagen and the benchmark's inputs
// read back by index. It is the per-shard counterpart of Triples, used by
// the snapshot writer.
func (st *Store) ShardTriples(i int) []Triple {
	sn := st.shards[i].cur.Load()
	if len(st.oshards) == 0 {
		return sn.liveTriples()
	}
	out := make([]Triple, sn.live)
	c := cursorOverSnaps([]*snap{sn}, SPO, Pattern{})
	n := 0
	for n < len(out) {
		k := c.NextBatch(out[n:])
		if k == 0 {
			break
		}
		n += k
	}
	return out[:n]
}

// indexFor picks the permutation whose prefix covers the bound positions of
// the pattern, and returns its index and the number of bound positions: the
// bound prefix is the pattern's values at that permutation's first n
// columns.
func indexFor(pat Pattern) (pi, n int) {
	bs, bp, bo := pat[S] != Wildcard, pat[P] != Wildcard, pat[O] != Wildcard
	switch {
	case bs && bp && bo:
		return 0, 3
	case bs && bp:
		return 0, 2
	case bs && bo:
		return 1, 2
	case bp && bo:
		return 3, 2
	case bs:
		return 0, 1
	case bp:
		return 2, 1
	case bo:
		return 4, 1
	default:
		return 0, 0
	}
}

// The live store has no read code of its own: Count, Contains, NewCursor,
// Scan and Match each pin a Snapshot for the one call and read that. They
// remain because benchmark code reads a *Store as a Reader; new code pins a
// Snapshot once and reads one store state through it.

// Count is Snapshot().Count, on a snapshot pinned for this call.
func (st *Store) Count(pat Pattern) int { return st.Snapshot().Count(pat) }

// Contains is Snapshot().Contains, on a snapshot pinned for this call.
func (st *Store) Contains(t Triple) bool { return st.Snapshot().Contains(t) }

// NewCursor is Snapshot().NewCursor, on a snapshot pinned for this call.
func (st *Store) NewCursor(p Perm, pat Pattern) Cursor { return st.Snapshot().NewCursor(p, pat) }

// Scan is Snapshot().Scan, on a snapshot pinned for this call.
func (st *Store) Scan(pat Pattern, fn func(Triple) bool) { st.Snapshot().Scan(pat, fn) }

// Match is Snapshot().Match, on a snapshot pinned for this call.
func (st *Store) Match(pat Pattern) []Triple { return st.Snapshot().Match(pat) }

// Clone returns a deep copy of the store sharing the dictionary and shard
// layout (both sides of a dual partitioning). It is used to saturate a
// database without mutating the original (Section 4.2 compares both on equal
// footing). The copy shares no mutable state: its shards are compacted,
// densified rebuilds.
func (st *Store) Clone() *Store {
	c := &Store{dict: st.dict, shards: make([]*shard, len(st.shards))}
	for i, sh := range st.shards {
		c.shards[i] = sh.clone()
	}
	if len(st.oshards) > 0 {
		c.oshards = make([]*shard, len(st.oshards))
		for i, sh := range st.oshards {
			c.oshards[i] = sh.clone()
		}
	}
	return c
}

// Graph decodes the whole store back to an rdf.Graph, in Triples order.
func (st *Store) Graph() rdf.Graph {
	g := make(rdf.Graph, 0, st.Len())
	for i := range st.shards {
		for _, t := range st.ShardTriples(i) {
			g = append(g, rdf.Triple{
				S: st.dict.MustDecode(t[S]),
				P: st.dict.MustDecode(t[P]),
				O: st.dict.MustDecode(t[O]),
			})
		}
	}
	return g
}
