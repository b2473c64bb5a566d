// Package dict implements the dictionary encoding used by the storage layer:
// each distinct RDF term is mapped to a dense positive integer ID, mirroring
// the paper's "dictionary-encoded triple table, using a distinct integer for
// each distinct URI or literal" (Section 6).
//
// IDs start at 1; 0 is never a valid ID (the conjunctive-query layer reserves
// non-positive values for variables).
//
// Each term's value is held once, in an append-only byte arena of
// fixed-size chunks, written once and never moved or changed. Each ID has
// one 32-bit offset, where its value ends, and one kind byte; the value
// starts where the previous one ends, or at the next chunk boundary when it
// did not fit in the rest of that chunk. One open-addressed table of IDs
// finds a term's ID by hashing the value it reads back from the arena, so
// the table holds no keys and no hashes. A term costs its value bytes, 4 for
// its offset, 1 for its kind and 4 bytes per table slot, at a load of 3/8 to
// 3/4.
//
// The dictionary is safe for concurrent use: encoders take a write lock,
// Decode, Lookup and Len a read lock, matching the sharded store's
// readers-alongside-writers contract (a query decoding answers must not race
// an update encoding fresh terms). Answers are decoded against a published
// View, which takes no lock and allocates nothing: a view holds IDs 1..n,
// and since arena bytes never move, its terms' values alias the arena.
//
// A dictionary that is served also keeps each term's SPARQL-JSON string
// literal, rendered and escaped once, in an append-only table (Literals,
// json.go); Render is the one rule every answer decodes an ID by.
package dict

import (
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"rdfviews/internal/rdf"
)

// ID is a dictionary code for one RDF term. Valid IDs are >= 1.
type ID int64

// arenaChunk is the arena's chunk size. A value longer than a chunk gets a
// block of whole chunks to itself, so every value is contiguous.
const (
	arenaChunk = 16 << 10
	kindChunk  = 4 << 10 // kinds per chunk
)

// View is one published state of a dictionary: IDs 1..n. A view never
// changes once taken; the dictionary writes only past its end, so a view is
// read without a lock, and the strings it returns alias the arena.
type View struct {
	n     int
	ends  chunked          // ID i's value ends at arena offset entry i; entry 0 is 0
	kinds [][]rdf.TermKind // ID i's kind is kinds[(i-1)/kindChunk][(i-1)%kindChunk]
	arena [][]byte         // arena offset o is arena[o/arenaChunk][o%arenaChunk]; each entry runs to its block's end
}

// Len returns the number of IDs the view holds.
func (v *View) Len() int { return v.n }

// Term returns the term of id, and false for an ID the view does not hold.
func (v *View) Term(id ID) (rdf.Term, bool) {
	if id < 1 || id > ID(v.n) {
		return rdf.Term{}, false
	}
	k, s := v.record(uint(id))
	return rdf.Term{Kind: k, Value: s}, true
}

// record reads ID i's kind and value; 1 <= i <= v.n. Neither waits on an
// arena byte.
func (v *View) record(i uint) (rdf.TermKind, string) {
	b := v.value(i)
	return v.kinds[(i-1)/kindChunk][(i-1)%kindChunk], unsafe.String(unsafe.SliceData(b), len(b))
}

// value returns ID i's value bytes; their length comes from the offsets.
func (v *View) value(i uint) []byte {
	start, end := v.ends.bounds(i)
	if next := (start + arenaChunk - 1) &^ (arenaChunk - 1); end > next {
		start = next // the value did not fit in start's chunk
	}
	return v.arena[start/arenaChunk][start%arenaChunk:][:end-start]
}

// Dictionary is a bidirectional mapping between RDF terms and IDs.
// The zero value is not usable; call New.
type Dictionary struct {
	mu    sync.RWMutex
	all   View     // every ID assigned; encoders extend it
	next  uint32   // where the last value ends
	slots []uint32 // ID per slot, 0 = empty; power-of-two length, load at most 3/4
	seed  maphash.Seed

	view atomic.Pointer[View] // the last view published

	litMu sync.Mutex               // serializes extending the rendered table
	lits  atomic.Pointer[Literals] // the rendered table; nil until first asked for
}

// New returns an empty dictionary.
func New() *Dictionary { return newSized(0, 0) }

// newSized returns an empty dictionary that holds terms terms, of bytes
// arena bytes in all, without growing its table, offsets or chunk list.
func newSized(terms, bytes int) *Dictionary {
	size := 16
	for size*3 < terms*4 {
		size <<= 1
	}
	d := &Dictionary{slots: make([]uint32, size), seed: maphash.MakeSeed()}
	d.all.ends = make(chunked, 0, terms/endChunk+1).put(0, 0)
	d.all.kinds = make([][]rdf.TermKind, 0, terms/kindChunk+1)
	d.all.arena = make([][]byte, 0, bytes/arenaChunk+1)
	return d
}

// hash is the table's hash of a term: its value's, mixed with its kind. A
// kind past Blank hashes, and is filed, as a blank node, as Term.Key
// renders it.
func (d *Dictionary) hash(k rdf.TermKind, v string) uint64 {
	return maphash.String(d.seed, v) ^ uint64(min(k, rdf.Blank))*0x9e3779b97f4a7c15
}

// find returns t's ID and slot, or 0 and the empty slot t belongs in.
func (d *Dictionary) find(t rdf.Term) (ID, uint64) {
	mask := uint64(len(d.slots) - 1)
	kind := min(t.Kind, rdf.Blank)
	for i := d.hash(t.Kind, t.Value) & mask; ; i = (i + 1) & mask {
		id := d.slots[i]
		if id == 0 {
			return 0, i
		}
		if k, v := d.all.record(uint(id)); min(k, rdf.Blank) == kind && v == t.Value {
			return ID(id), i
		}
	}
}

// Encode returns the ID for the term, assigning a fresh one on first sight.
func (d *Dictionary) Encode(t rdf.Term) ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, slot := d.find(t)
	if id != 0 {
		return id
	}
	id = d.add(t)
	d.slots[slot] = uint32(id)
	if d.all.n*4 > len(d.slots)*3 {
		d.rehash()
	}
	return id
}

// add writes t's value to the arena and assigns it the next ID.
func (d *Dictionary) add(t rdf.Term) ID {
	if d.all.n == math.MaxUint32 {
		panic("dict: 2^32-1 terms, the most 32-bit IDs hold")
	}
	size := uint64(len(t.Value))
	start := uint64(d.next)
	if start/arenaChunk == uint64(len(d.all.arena)) || start%arenaChunk+size > arenaChunk {
		start = d.newBlock(size)
	}
	copy(d.all.arena[start/arenaChunk][start%arenaChunk:], t.Value)
	d.next = uint32(start + size)
	if d.all.n%kindChunk == 0 {
		d.all.kinds = append(d.all.kinds, make([]rdf.TermKind, kindChunk))
	}
	d.all.kinds[d.all.n/kindChunk][d.all.n%kindChunk] = t.Kind
	d.all.n++
	d.all.ends = d.all.ends.put(uint(d.all.n), d.next)
	return ID(d.all.n)
}

// newBlock appends an arena block of whole chunks, at least size bytes and
// at least one chunk, and returns its offset: the chunk boundary after the
// last value. The rest of the last chunk is never written.
func (d *Dictionary) newBlock(size uint64) uint64 {
	base := uint64(len(d.all.arena)) * arenaChunk
	blk := make([]byte, max(1, (size+arenaChunk-1)/arenaChunk)*arenaChunk)
	if base+uint64(len(blk)) > math.MaxUint32 {
		panic("dict: the term arena would pass 4 GiB, the most 32-bit offsets address")
	}
	for o := 0; o < len(blk); o += arenaChunk {
		d.all.arena = append(d.all.arena, blk[o:])
	}
	return base
}

// rehash doubles the table and files every ID again, by the hash of its
// value read back from the arena.
func (d *Dictionary) rehash() {
	d.slots = make([]uint32, 2*len(d.slots))
	mask := uint64(len(d.slots) - 1)
	for id := 1; id <= d.all.n; id++ {
		i := d.hash(d.all.record(uint(id))) & mask
		for d.slots[i] != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = uint32(id)
	}
}

// EncodeIRI is Encode over a bare IRI string (after expanding the well-known
// rdf:/rdfs: prefixes).
func (d *Dictionary) EncodeIRI(iri string) ID {
	return d.Encode(rdf.NewIRI(rdf.ExpandIRI(iri)))
}

// Lookup returns the ID for the term if it is already in the dictionary.
func (d *Dictionary) Lookup(t rdf.Term) (ID, bool) {
	d.mu.RLock()
	id, _ := d.find(t)
	d.mu.RUnlock()
	return id, id != 0
}

// LookupIRI is Lookup over a bare IRI string.
func (d *Dictionary) LookupIRI(iri string) (ID, bool) {
	return d.Lookup(rdf.NewIRI(rdf.ExpandIRI(iri)))
}

// Decode returns the term for the ID, its value aliasing the arena. It
// returns an error for IDs that were never assigned.
func (d *Dictionary) Decode(id ID) (rdf.Term, error) {
	d.mu.RLock()
	t, ok := d.all.Term(id)
	n := d.all.n
	d.mu.RUnlock()
	if !ok {
		return rdf.Term{}, fmt.Errorf("dict: ID %d out of range [1,%d]", id, n)
	}
	return t, nil
}

// MustDecode is Decode panicking on unknown IDs; for internal use where IDs
// are known to be valid.
func (d *Dictionary) MustDecode(id ID) rdf.Term {
	t, err := d.Decode(id)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of distinct terms in the dictionary.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.all.n
}

// View returns a view of every ID assigned so far. The view is shared until
// the next term is assigned, so taking one allocates only after an encode.
func (d *Dictionary) View() *View {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if v := d.view.Load(); v != nil && v.n == d.all.n {
		return v
	}
	v := d.all
	d.view.Store(&v)
	return &v
}

// Terms builds the terms in ID order (Terms()[i] has ID i+1): the
// persistence layer's serialization form. Their values alias the arena.
func (d *Dictionary) Terms() []rdf.Term {
	v := d.View()
	terms := make([]rdf.Term, v.n)
	for i := range terms {
		terms[i].Kind, terms[i].Value = v.record(uint(i + 1))
	}
	return terms
}

// FromTerms rebuilds a dictionary from a Terms() slice, preserving IDs. The
// table and the offset and chunk lists are sized once for every term; a
// term listed twice keeps its first ID, so the result's Len is short of
// len(terms).
func FromTerms(terms []rdf.Term) *Dictionary {
	bytes := 0
	for _, t := range terms {
		bytes += len(t.Value)
	}
	d := newSized(len(terms), bytes)
	for _, t := range terms {
		d.Encode(t)
	}
	return d
}
