package engine

// idTable is a flat open-addressing hash table from a 64-bit key hash to an
// int32 chain head, used by the hash joins (sets of rows, the distinct ones
// included, are RowIndex's table of positions). Callers pass hashes they
// already computed (hashColumns, hashExtent) and resolve collisions by value
// comparison, so the table can probe linearly on raw uint64 keys with no
// re-hashing — measurably faster than a Go map on the
// executor's hot path, where the map's own hashing and bucket bookkeeping
// dominated the profile.
//
// A key of 0 marks an empty slot; genuine zero hashes are remapped (harmless:
// users verify matches by value, so shared chains only cost a comparison).
type idTable struct {
	keys []uint64
	vals []int32
	mask uint64
	used int
}

// tableSlots is the initial size of the engine's open-addressing tables: the
// power of two, at least 16, that holds sizeHint entries at a load factor of
// at most 3/4.
func tableSlots(sizeHint int) int {
	size := 16
	for size*3 < sizeHint*4 {
		size <<= 1
	}
	return size
}

func newIDTable(sizeHint int) *idTable {
	size := tableSlots(sizeHint)
	return &idTable{
		keys: make([]uint64, size),
		vals: make([]int32, size),
		mask: uint64(size - 1),
	}
}

func remapZero(h uint64) uint64 {
	if h == 0 {
		return 0x9e3779b97f4a7c15
	}
	return h
}

// get returns the value stored for the hash, or 0 when absent.
func (t *idTable) get(h uint64) int32 {
	h = remapZero(h)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case h:
			return t.vals[i]
		case 0:
			return 0
		}
	}
}

// put stores the value for the hash, inserting or overwriting.
func (t *idTable) put(h uint64, v int32) {
	h = remapZero(h)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case h:
			t.vals[i] = v
			return
		case 0:
			t.keys[i] = h
			t.vals[i] = v
			t.used++
			if t.used*4 > len(t.keys)*3 {
				t.grow()
			}
			return
		}
	}
}

// getBatch looks up a batch of hashes at once, writing each hash's stored
// value (or 0 when absent) into heads. One tight loop over table memory the
// compiler keeps free of bounds checks and call overhead — the vectorized
// joins' probe primitive, where per-row get calls dominated.
func (t *idTable) getBatch(hashes []uint64, heads []int32) {
	keys, vals, mask := t.keys, t.vals, t.mask
	for j, h := range hashes {
		h = remapZero(h)
		v := int32(0)
		for i := h & mask; ; i = (i + 1) & mask {
			k := keys[i]
			if k == h {
				v = vals[i]
				break
			}
			if k == 0 {
				break
			}
		}
		heads[j] = v
	}
}

func (t *idTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	size := len(oldKeys) * 2
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.mask = uint64(size - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		for j := k & t.mask; ; j = (j + 1) & t.mask {
			if t.keys[j] == 0 {
				t.keys[j] = k
				t.vals[j] = oldVals[i]
				break
			}
		}
	}
}
