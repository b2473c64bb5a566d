package cq

// Homomorphism machinery: containment mappings (Chandra & Merlin [7]),
// query containment/equivalence, and body isomorphism.

// FindHomomorphism searches for a mapping h from the variables of src to the
// terms of dst such that (i) h extends the seed mapping, (ii) h is the
// identity on constants, and (iii) every atom of src, with h applied, is an
// atom of dst. It returns nil when no such mapping exists.
//
// When injective is true, h must additionally be injective on variables,
// map variables to variables, and map the atoms of src onto distinct atoms of
// dst covering len(src.Atoms) of them — i.e., with equal atom counts it is a
// body isomorphism.
func FindHomomorphism(src, dst *Query, seed map[Term]Term, injective bool) map[Term]Term {
	h := make(map[Term]Term, len(seed))
	inv := make(map[Term]Term) // used only when injective
	for k, v := range seed {
		if !k.IsVar() {
			if k != v {
				return nil
			}
			continue
		}
		if prev, ok := h[k]; ok && prev != v {
			return nil
		}
		if injective {
			if !v.IsVar() {
				return nil
			}
			if prev, ok := inv[v]; ok && prev != k {
				return nil
			}
			inv[v] = k
		}
		h[k] = v
	}

	// Order src atoms most-constrained-first: more constants and more
	// already-bound variables first. A simple static heuristic is enough at
	// the query sizes the paper considers.
	order := make([]int, len(src.Atoms))
	for i := range order {
		order[i] = i
	}
	score := func(a Atom) int {
		s := 0
		for _, t := range a {
			if t.IsConst() {
				s += 2
			} else if _, ok := h[t]; ok {
				s++
			}
		}
		return s
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && score(src.Atoms[order[j]]) > score(src.Atoms[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	usedDst := make([]bool, len(dst.Atoms))
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(order) {
			return true
		}
		a := src.Atoms[order[k]]
		for di, b := range dst.Atoms {
			if injective && usedDst[di] {
				continue
			}
			// Try to unify a with b under h.
			var added []Term
			var addedInv []Term
			ok := true
			for p := 0; p < 3; p++ {
				ta, tb := a[p], b[p]
				if ta.IsConst() {
					if ta != tb {
						ok = false
						break
					}
					continue
				}
				if cur, bound := h[ta]; bound {
					if cur != tb {
						ok = false
						break
					}
					continue
				}
				if injective {
					if !tb.IsVar() {
						ok = false
						break
					}
					if _, taken := inv[tb]; taken {
						ok = false
						break
					}
					inv[tb] = ta
					addedInv = append(addedInv, tb)
				}
				h[ta] = tb
				added = append(added, ta)
			}
			if ok {
				if injective {
					usedDst[di] = true
				}
				if rec(k + 1) {
					return true
				}
				if injective {
					usedDst[di] = false
				}
			}
			for _, t := range added {
				delete(h, t)
			}
			for _, t := range addedInv {
				delete(inv, t)
			}
		}
		return false
	}
	if !rec(0) {
		return nil
	}
	return h
}

// headSeed builds the seed mapping head(src)[i] ↦ head(dst)[i] required by a
// containment mapping. It returns ok=false when the heads are incompatible
// (different arity, conflicting bindings, or mismatched constants).
func headSeed(src, dst *Query) (map[Term]Term, bool) {
	if len(src.Head) != len(dst.Head) {
		return nil, false
	}
	seed := make(map[Term]Term, len(src.Head))
	for i := range src.Head {
		hs, hd := src.Head[i], dst.Head[i]
		if hs.IsConst() {
			if hs != hd {
				return nil, false
			}
			continue
		}
		if prev, ok := seed[hs]; ok && prev != hd {
			return nil, false
		}
		seed[hs] = hd
	}
	return seed, true
}

// Contains reports whether q2 ⊆ q1, i.e., on every database the answers of
// q2 are answers of q1. It holds iff there is a containment mapping from q1
// to q2 (homomorphism mapping head to head positionally).
func Contains(q1, q2 *Query) bool {
	seed, ok := headSeed(q1, q2)
	if !ok {
		return false
	}
	return FindHomomorphism(q1, q2, seed, false) != nil
}

// Equivalent reports whether q1 and q2 are equivalent: containment mappings
// exist in both directions.
func Equivalent(q1, q2 *Query) bool {
	return Contains(q1, q2) && Contains(q2, q1)
}

// BodyIsomorphism finds a bijective variable renaming from q1's body onto
// q2's body — "their bodies are equivalent up to variable renaming", the
// applicability condition of View Fusion (Definition 3.5). Heads are ignored.
// It returns nil when the bodies are not isomorphic.
func BodyIsomorphism(q1, q2 *Query) map[Term]Term {
	if len(q1.Atoms) != len(q2.Atoms) {
		return nil
	}
	if len(q1.Vars()) != len(q2.Vars()) {
		return nil
	}
	return FindHomomorphism(q1, q2, nil, true)
}
