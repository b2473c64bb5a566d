// Package plancache is the serving tier's compiled-artifact cache: a sharded
// LRU keyed by canonicalized query codes (internal/cq.Query.Label — built
// for exactly this) holding whatever the answering paths find expensive to
// rebuild per call: reformulated UCQs, chosen rewritings, compiled physical
// plans, cardinality snapshots.
//
// Three properties carry the serving load:
//
//   - Singleflight compilation: N concurrent misses on one key run the
//     compile callback once; the rest wait on the flight and share its
//     result. A thundering herd on a cold popular query costs one
//     reformulate/rewrite/plan, not N.
//   - Generation invalidation: Invalidate bumps a cache-wide generation and
//     every existing entry becomes lazily stale — the next lookup recompiles
//     in place. No sweep, no pause.
//   - Per-entry validity: lookups pass a validity callback (cardinality-drift
//     checks, epoch pins); a cached artifact that fails it is recompiled
//     under the same singleflight discipline.
//
// Hit/miss/eviction/compile-time counters land in a stats.CacheCounters
// ledger shared with the CLI's -cache-stats surface and, eventually, the
// adaptive view-selection phase.
package plancache

import (
	"sync"
	"sync/atomic"
	"time"

	"rdfviews/internal/stats"
)

// numShards spreads keys over independently locked LRU segments so
// concurrent answerers on different queries never contend. Power of two.
const numShards = 16

// DefaultCapacity is the cache-wide entry budget used when New is given a
// non-positive capacity.
const DefaultCapacity = 256

// Cache is a concurrent, sharded LRU from canonical query codes to compiled
// artifacts. The zero value is not usable; construct with New.
type Cache struct {
	ctr         *stats.CacheCounters
	gen         atomic.Uint64
	capPerShard int
	shards      [numShards]shard
}

type shard struct {
	mu         sync.Mutex
	entries    map[string]*entry
	head, tail *entry             // LRU order: head = most recently used
	flights    map[string]*flight // in-progress compiles, keyed like entries
}

type entry struct {
	key        string
	val        any
	gen        uint64        // cache generation the artifact was compiled under
	cost       time.Duration // compile time, credited to SavedNanos per hit
	prev, next *entry
}

// flight is one in-progress compile; waiters block on done and read val/err.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New builds a cache holding up to capacity entries across all shards
// (non-positive capacity selects DefaultCapacity). Counters may be nil, in
// which case a private ledger is allocated; pass a shared one to aggregate
// several caches into a single -cache-stats report.
func New(capacity int, ctr *stats.CacheCounters) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if ctr == nil {
		ctr = &stats.CacheCounters{}
	}
	per := (capacity + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{ctr: ctr, capPerShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry)
		c.shards[i].flights = make(map[string]*flight)
	}
	return c
}

// Counters returns the cache's ledger.
func (c *Cache) Counters() *stats.CacheCounters { return c.ctr }

// Generation returns the current invalidation generation.
func (c *Cache) Generation() uint64 { return c.gen.Load() }

// Invalidate bumps the generation: every cached entry becomes stale and will
// be recompiled on its next lookup. Entries are discarded lazily.
func (c *Cache) Invalidate() {
	c.gen.Add(1)
	c.ctr.Invalidations.Add(1)
}

// Len returns the number of resident entries (stale ones included until
// their next lookup or eviction).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Do returns the artifact for key, compiling it if absent, stale (generation
// mismatch), or rejected by valid. hit reports whether a cached artifact was
// returned without running compile or waiting on another caller's compile.
//
// valid runs under the shard lock — it must be quick and must not reenter
// the cache. nil means always valid. Errors are not cached: every waiter on
// a failed flight gets the error, and the next lookup retries.
func (c *Cache) Do(key string, valid func(any) bool, compile func() (any, error)) (v any, hit bool, err error) {
	sh := &c.shards[shardIndex(key)]
	cg := c.gen.Load()

	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok && e.gen == cg && (valid == nil || valid(e.val)) {
		sh.moveFront(e)
		cost := e.cost
		v = e.val
		sh.mu.Unlock()
		c.ctr.Hits.Add(1)
		c.ctr.SavedNanos.Add(int64(cost))
		return v, true, nil
	}
	if f, ok := sh.flights[key]; ok {
		sh.mu.Unlock()
		<-f.done
		c.ctr.Misses.Add(1)
		return f.val, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[key] = f
	sh.mu.Unlock()

	t0 := time.Now()
	v, err = compile()
	dt := time.Since(t0)
	f.val, f.err = v, err

	sh.mu.Lock()
	delete(sh.flights, key)
	if err == nil {
		// Insert under the generation read before compiling: an Invalidate
		// racing the compile leaves the fresh entry already stale, never a
		// stale artifact tagged current.
		if e, ok := sh.entries[key]; ok {
			e.val, e.gen, e.cost = v, cg, dt
			sh.moveFront(e)
		} else {
			e := &entry{key: key, val: v, gen: cg, cost: dt}
			sh.entries[key] = e
			sh.pushFront(e)
			for len(sh.entries) > c.capPerShard {
				ev := sh.tail
				sh.unlink(ev)
				delete(sh.entries, ev.key)
				c.ctr.Evictions.Add(1)
			}
		}
	}
	sh.mu.Unlock()
	close(f.done)

	c.ctr.Misses.Add(1)
	c.ctr.CompileNanos.Add(int64(dt))
	return v, false, err
}

// Get returns the artifact for key without compiling, applying the same
// generation and validity checks as Do. It does not touch the counters.
func (c *Cache) Get(key string, valid func(any) bool) (any, bool) {
	sh := &c.shards[shardIndex(key)]
	cg := c.gen.Load()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[key]; ok && e.gen == cg && (valid == nil || valid(e.val)) {
		sh.moveFront(e)
		return e.val, true
	}
	return nil, false
}

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// shardIndex hashes the key (FNV-1a) onto a shard.
func shardIndex(key string) int {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h & (numShards - 1))
}
