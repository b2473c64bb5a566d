package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rdfviews/internal/algebra"
)

// The search kernel keeps a state's identity and its fusion candidates in
// proportion to the transition, not to the state. These tests hold each to
// the whole-state computation it stands in for, and derive's plans to
// substituting every plan, over the states of real searches.

// eachSearch runs the kernel's differential matrix — no reasoning and
// pre-reformulation × DFS, GSTR, EXSTR, EXNAIVE × AVF on and off — and hands
// f each search's context and the states the search created, S0 first.
func eachSearch(t *testing.T, f func(t *testing.T, ctx *Ctx, states []*State)) {
	for _, mode := range []string{"none", "pre"} {
		queries, atoms := 5, 4
		if mode == "pre" {
			queries, atoms = 3, 3
		}
		fx := newSearchFixture(t, queries, atoms, 5)
		for _, strategy := range []Strategy{DFS, GSTR, ExStr, ExNaive} {
			for _, avf := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s-%v-avf=%v", mode, strategy, avf), func(t *testing.T) {
					s0, ctx, est := fx.start(t, mode)
					sr := newSearcher(s0, ctx, Options{Strategy: strategy, AVF: avf, STV: true, MaxStates: 400, Estimator: est})
					states := []*State{s0}
					sr.check = func(s *State) { states = append(states, s) }
					if _, err := sr.run(s0); err != nil {
						t.Fatal(err)
					}
					f(t, ctx, states)
				})
			}
		}
	}
}

// TestStateKeyMatchesCode: the interned key a search deduplicates by, kept up
// to date transition by transition, equals the key built from the state's
// views, and two states have equal keys exactly when their canonical codes
// (the sorted join of their views' code strings) are equal.
func TestStateKeyMatchesCode(t *testing.T) {
	eachSearch(t, func(t *testing.T, ctx *Ctx, states []*State) {
		byKey, byCode := map[string]string{}, map[string]string{}
		for _, s := range states {
			if scratch := newState(s.views, nil, nil, s.Stage).key; !bytes.Equal(s.key, scratch) {
				t.Fatalf("derived key %x, from the views %x, of\n%s", s.key, scratch, s.Format())
			}
			k, c := string(s.key), s.Code()
			if prev, ok := byKey[k]; ok && prev != c {
				t.Fatalf("equal keys, different codes:\n%s\n--\n%s", prev, c)
			}
			if prev, ok := byCode[c]; ok && prev != k {
				t.Fatalf("equal codes, different keys %x and %x", prev, k)
			}
			byKey[k], byCode[c] = c, k
		}
		if len(byKey) < 10 {
			t.Fatalf("only %d distinct states", len(byKey))
		}
	})
}

// TestFusionOrderMatchesAllPairs: enumVF yields the fusions of the all-pairs
// scan over body codes, in its order. Without AVF a pre-reformulation state
// has hundreds of fusions, so states are sampled.
func TestFusionOrderMatchesAllPairs(t *testing.T) {
	eachSearch(t, func(t *testing.T, ctx *Ctx, states []*State) {
		pairs := 0
		for _, s := range sample(states, 8) {
			var got [][2]algebra.ViewID
			ctx.enumVF(s, func(ns *State) bool {
				got = append(got, removedViews(s, ns))
				return true
			})
			want := allPairsVF(ctx, s)
			if !slices.Equal(got, want) {
				t.Fatalf("enumVF fused %v, the all-pairs scan %v", got, want)
			}
			pairs += len(want)
		}
		if pairs == 0 && !strings.Contains(t.Name(), "avf=true") {
			t.Fatal("no fusion enumerated")
		}
	})
}

// allPairsVF is the fusion enumeration the body buckets replaced: every pair
// of views i < j by ID whose body codes are equal, kept when the fusion
// applies.
func allPairsVF(ctx *Ctx, s *State) [][2]algebra.ViewID {
	var out [][2]algebra.ViewID
	views := s.SortedViews()
	for i := 0; i < len(views); i++ {
		for j := i + 1; j < len(views); j++ {
			if views[i].BodyCode() != views[j].BodyCode() {
				continue
			}
			if ctx.ApplyVF(s, views[i].ID, views[j].ID) != nil {
				out = append(out, [2]algebra.ViewID{views[i].ID, views[j].ID})
			}
		}
	}
	return out
}

// removedViews returns the two views of s that a View Fusion into ns removed.
func removedViews(s, ns *State) [2]algebra.ViewID {
	var out [2]algebra.ViewID
	n := 0
	for _, v := range s.SortedViews() {
		if ns.View(v.ID) == nil && n < 2 {
			out[n] = v.ID
			n++
		}
	}
	return out
}

// TestDeriveMatchesFullSubstitution: a successor's plans are what passing
// every plan of its predecessor through SubstituteViews gives — the same
// pointer for a plan that scans no removed view, which is what lets Cost keep
// its REC term. It is the oracle for a derive that rewrites only the legs
// that scan a removed view. Every state's scan lists are what walking its
// plans and legs gives, and a successor shares a plan's or a leg's list
// exactly when it shares the plan or the leg.
//
// The substitution a transition made is read back by applying it a second
// time, from the same context, to a probe state with the same views whose
// k-th plan is a bare scan of the k-th view: SubstituteViews hands such a
// scan its replacement itself.
func TestDeriveMatchesFullSubstitution(t *testing.T) {
	eachSearch(t, func(t *testing.T, ctx *Ctx, states []*State) {
		for _, s := range states {
			checkScans(t, s)
		}
		checked := 0
		for _, s := range sample(states, 12) {
			probe := probeState(s)
			for _, apply := range transitionsOf(s, 6) {
				before := *ctx
				ns := apply(ctx, s)
				if ns == nil {
					continue
				}
				after := *ctx
				*ctx = before // the same fresh IDs and variables again
				pns := apply(ctx, probe)
				*ctx = after
				subs := map[algebra.ViewID]algebra.Plan{}
				for k, v := range probe.SortedViews() {
					if ns.View(v.ID) == nil {
						subs[v.ID] = pns.Plans[k]
					}
				}
				for i, p := range s.Plans {
					want := algebra.SubstituteViews(p, subs)
					if want == p && ns.Plans[i] != p {
						t.Fatalf("plan %d scans no removed view %v but was rebuilt", i, subs)
					}
					if !reflect.DeepEqual(ns.Plans[i], want) {
						t.Fatalf("plan %d:\n got %s\nwant %s", i, ns.Plans[i], want)
					}
					was, is := s.scans[i], ns.scans[i]
					if samePlan, sameList := p == ns.Plans[i], &was.all[0] == &is.all[0]; sameList != samePlan {
						t.Fatalf("plan %d: plan shared %v, its list shared %v", i, samePlan, sameList)
					}
					legs, newLegs := legsOf(p), legsOf(ns.Plans[i])
					for b := range legs {
						sameLeg := legs[b] == newLegs[b]
						if sameList := &was.legs[b][0] == &is.legs[b][0]; sameList != sameLeg {
							t.Fatalf("plan %d leg %d: leg shared %v, its list shared %v", i, b, sameLeg, sameList)
						}
					}
				}
				checkScans(t, ns)
				checked++
			}
		}
		if checked < 10 {
			t.Fatalf("only %d transitions checked", checked)
		}
	})
}

// checkScans fails unless each plan's and each leg's scan list is the sorted
// distinct views the plan or leg scans.
func checkScans(t *testing.T, s *State) {
	t.Helper()
	if len(s.scans) != len(s.Plans) {
		t.Fatalf("%d scan lists for %d plans", len(s.scans), len(s.Plans))
	}
	for i, p := range s.Plans {
		if want := algebra.SortedViewIDs(p); !slices.Equal(s.scans[i].all, want) {
			t.Fatalf("plan %d: scan list %v, the plan scans %v", i, s.scans[i].all, want)
		}
		legs := legsOf(p)
		if len(s.scans[i].legs) != len(legs) {
			t.Fatalf("plan %d: %d scan lists for %d legs", i, len(s.scans[i].legs), len(legs))
		}
		for b, leg := range legs {
			if want := algebra.SortedViewIDs(leg); !slices.Equal(s.scans[i].legs[b], want) {
				t.Fatalf("plan %d leg %d: scan list %v, the leg scans %v", i, b, s.scans[i].legs[b], want)
			}
		}
	}
}

// probeState has the views of s and, for the k-th of them, a plan that is a
// bare scan of it.
func probeState(s *State) *State {
	plans := make([]algebra.Plan, len(s.views))
	for k, v := range s.views {
		plans[k] = algebra.NewScan(v.ID, v.Q.Head)
	}
	return newState(s.views, plans, listScans(plans), s.Stage)
}

// transitionsOf lists transitions applicable to s, at most perKind of each
// kind spread over the state's views, as functions a test can apply twice.
func transitionsOf(s *State, perKind int) []func(*Ctx, *State) *State {
	var sc, jc, vb, vf []func(*Ctx, *State) *State
	views := s.SortedViews()
	for i, v := range views {
		id := v.ID
		for _, e := range selectionEdges(v.Q) {
			sc = append(sc, func(c *Ctx, s *State) *State { return c.ApplySC(s, id, e.atom, e.pos) })
		}
		joinVars, occs := joinVarOccurrences(v.Q)
		for _, x := range joinVars {
			for _, o := range occs[x] {
				jc = append(jc, func(c *Ctx, s *State) *State { return c.ApplyJC(s, id, x, o.atom, o.pos) })
			}
		}
		for _, m := range v.vbCandidates() {
			vb = append(vb, func(c *Ctx, s *State) *State { return c.ApplyVB(s, id, m[0], m[1]) })
		}
		for _, w := range views[i+1:] {
			if w.BodyCode() == v.BodyCode() {
				vf = append(vf, func(c *Ctx, s *State) *State { return c.ApplyVF(s, id, w.ID) })
			}
		}
	}
	var out []func(*Ctx, *State) *State
	for _, kind := range [][]func(*Ctx, *State) *State{sc, jc, vb, vf} {
		out = append(out, sample(kind, perKind)...)
	}
	return out
}

// sample returns at most n elements of xs, evenly spread.
func sample[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}

// TestRelationalStatesSeen: the [21] strategies count in StatesSeen every
// state a phase admits, so it lies between S0 alone and every state created.
func TestRelationalStatesSeen(t *testing.T) {
	f := newSearchFixture(t, 3, 3, 3)
	for _, strategy := range []Strategy{RelPruning, RelGreedy, RelHeuristic} {
		s0, ctx, est := f.start(t, "none")
		res, err := Search(s0, ctx, Options{Strategy: strategy, MaxStates: 3000, Estimator: est})
		if err != nil && !errors.Is(err, ErrStateBudget) {
			t.Fatalf("%v: %v", strategy, err)
		}
		if res.StatesSeen <= 1 || res.StatesSeen > res.Counters.Created+1 {
			t.Errorf("%v: %d states seen of %d created", strategy, res.StatesSeen, res.Counters.Created)
		}
	}
}
