package engine

import (
	"encoding/binary"

	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
	"rdfviews/internal/store"
)

// evalQueryINL is the original recursive index-nested-loop evaluator: atoms
// are ordered greedily (most selective first, preferring atoms bound to
// already-placed variables) and each atom is resolved through the store's
// permutation indexes under the current partial binding held in a map.
//
// It is superseded by the planned streaming pipeline (planner.go, pipeline.go)
// but kept as the correctness oracle of the store-side differential tests: it
// shares the atom ordering with the planner and nothing with the operators.
// Like the planned paths it reads through store.Reader, so the oracle can replay
// against a pinned snapshot as well as a quiesced live store. It deduplicates
// head rows through a Go map keyed on their values, not the operators'
// RowIndex, so a fault in that set cannot hide in both readings.
func evalQueryINL(st store.Reader, q *cq.Query) (*Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	order := orderAtoms(q, atomCounts(q, nil, storeCards{st}))
	out := NewRelation(q.Head)
	seen := make(map[string]bool)
	var key []byte
	row := make(Row, len(q.Head))
	bind := make(map[cq.Term]dict.ID)

	var rec func(k int)
	rec = func(k int) {
		if k == len(order) {
			for i, h := range q.Head {
				if h.IsConst() {
					row[i] = h.ConstID()
				} else {
					row[i] = bind[h]
				}
			}
			if key = appendRowKey(key[:0], row); !seen[string(key)] {
				seen[string(key)] = true
				out.Append(row)
			}
			return
		}
		a := q.Atoms[order[k]]
		var pat store.Pattern
		for p := 0; p < 3; p++ {
			switch {
			case a[p].IsConst():
				pat[p] = a[p].ConstID()
			default:
				if v, ok := bind[a[p]]; ok {
					pat[p] = v
				} else {
					pat[p] = store.Wildcard
				}
			}
		}
		st.Scan(pat, func(t store.Triple) bool {
			var added []cq.Term
			ok := true
			for p := 0; p < 3 && ok; p++ {
				term := a[p]
				if term.IsConst() {
					continue
				}
				if v, bound := bind[term]; bound {
					if v != t[p] {
						ok = false
					}
					continue
				}
				bind[term] = t[p]
				added = append(added, term)
			}
			if ok {
				rec(k + 1)
			}
			for _, v := range added {
				delete(bind, v)
			}
			return true
		})
	}
	rec(0)
	return out, nil
}

// appendRowKey appends the row's values to key, eight bytes each: the map key
// the references deduplicate rows by.
func appendRowKey(key []byte, row Row) []byte {
	for _, v := range row {
		key = binary.LittleEndian.AppendUint64(key, uint64(v))
	}
	return key
}
