package algebra

import (
	"strings"
	"testing"

	"rdfviews/internal/cq"
)

func TestScanColumnsDedup(t *testing.T) {
	x := cq.Var(1)
	s := NewScan(1, []cq.Term{x, x, cq.Var(2)})
	cols := s.Columns()
	if len(cols) != 2 {
		t.Fatalf("Columns = %v", cols)
	}
}

func TestJoinColumnsShareLabels(t *testing.T) {
	x, y, z := cq.Var(1), cq.Var(2), cq.Var(3)
	j := NewJoin(NewScan(1, []cq.Term{x, y}), NewScan(2, []cq.Term{y, z}))
	cols := j.Columns()
	if len(cols) != 3 {
		t.Fatalf("Columns = %v", cols)
	}
}

func TestViewsCollectsRepetitions(t *testing.T) {
	x := cq.Var(1)
	u := NewUnion(NewScan(3, []cq.Term{x}), NewScan(3, []cq.Term{x}), NewScan(5, []cq.Term{x}))
	ids := u.Views(nil)
	if len(ids) != 3 {
		t.Fatalf("Views = %v", ids)
	}
	sorted := SortedViewIDs(u)
	if len(sorted) != 2 || sorted[0] != 3 || sorted[1] != 5 {
		t.Fatalf("SortedViewIDs = %v", sorted)
	}
}

func TestSubstituteViewsNested(t *testing.T) {
	x, y := cq.Var(1), cq.Var(2)
	inner := NewScan(1, []cq.Term{x, y})
	plan := NewProject(
		NewSelect(
			NewUnion(inner, NewScan(2, []cq.Term{x, y})),
			Cond{Left: x, Right: cq.Const(5)},
		),
		[]cq.Term{x},
	)
	repl := NewJoin(NewScan(7, []cq.Term{x}), NewScan(8, []cq.Term{x, y}))
	out := SubstituteViews(plan, map[ViewID]Plan{1: repl})
	ids := SortedViewIDs(out)
	want := []ViewID{2, 7, 8}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	// Original plan untouched.
	if got := SortedViewIDs(plan); len(got) != 2 {
		t.Error("substitution mutated the original plan")
	}
}

// TestSubstituteViewsRelabelsScan: a scan that relabels its view's head gets
// the replacement relabeled to its columns, and a label the replacement uses
// inside that one of the scan's columns would capture moves to a fresh one.
func TestSubstituteViewsRelabelsScan(t *testing.T) {
	x, y, z, w, w2 := cq.Var(1), cq.Var(2), cq.Var(3), cq.Var(4), cq.Var(5)
	cases := []struct {
		name string
		cols []cq.Term // the scan of view 1, whose head is [x, y]
		repl Plan
		want string
	}{
		{"cut kept connected", []cq.Term{y, z},
			NewProject(NewSelect(NewScan(7, []cq.Term{x, y, z}), Cond{Left: y, Right: z}), []cq.Term{x, y}),
			"π[X2,X3](σ[X3=X4](v7[X2,X3,X4]))"},
		{"cut split in two", []cq.Term{w, x},
			NewProject(NewJoin(NewScan(7, []cq.Term{x, w}), NewScan(8, []cq.Term{w2, y}), Cond{Left: w, Right: w2}), []cq.Term{x, y}),
			"π[X4,X1]((v7[X4,X6] ⋈[X6=X5] v8[X5,X1]))"},
		{"constant column stays", []cq.Term{z, cq.Const(9)},
			NewProject(NewSelect(NewScan(7, []cq.Term{x, y}), Cond{Left: y, Right: cq.Const(9)}), []cq.Term{x, cq.Const(9)}),
			"π[X3,#9](σ[X2=#9](v7[X3,X2]))"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := NewJoin(NewScan(1, tc.cols), NewScan(2, []cq.Term{z}))
			got := SubstituteViews(plan, map[ViewID]Plan{1: tc.repl}).(*Join)
			if s := got.Left.String(); s != tc.want {
				t.Fatalf("substituted %s\n want %s", s, tc.want)
			}
			if got.Right != plan.Right {
				t.Error("untouched scan was rebuilt")
			}
		})
	}
	// A scan labeled with the replacement's head takes it as it is.
	repl := NewProject(NewScan(7, []cq.Term{x, y, z}), []cq.Term{x, y})
	if got := SubstituteViews(NewScan(1, []cq.Term{x, y}), map[ViewID]Plan{1: repl}); got != Plan(repl) {
		t.Errorf("same labels: got %v, want the replacement itself", got)
	}
}

func TestScanRenamed(t *testing.T) {
	x, y := cq.Var(1), cq.Var(2)
	a, b := cq.Var(10), cq.Var(20)
	head := []cq.Term{x, y, cq.Const(9)}
	s := ScanRenamed(4, head, map[cq.Term]cq.Term{x: a, y: b})
	if s.Cols[0] != a || s.Cols[1] != b {
		t.Errorf("renamed cols = %v", s.Cols)
	}
	if s.Cols[2] != cq.Const(9) {
		t.Error("constants must pass through renaming")
	}
}

func TestPlanStrings(t *testing.T) {
	x, y := cq.Var(1), cq.Var(2)
	plans := []Plan{
		NewScan(1, []cq.Term{x, y}),
		NewSelect(NewScan(1, []cq.Term{x, y}), Cond{Left: x, Right: cq.Const(2)}),
		NewProject(NewScan(1, []cq.Term{x, y}), []cq.Term{y}),
		NewJoin(NewScan(1, []cq.Term{x}), NewScan(2, []cq.Term{x}), Cond{Left: x, Right: x}),
		NewUnion(NewScan(1, []cq.Term{x}), NewScan(2, []cq.Term{x})),
	}
	for _, p := range plans {
		s := p.String()
		if s == "" || !strings.Contains(s, "v1") {
			t.Errorf("String() = %q", s)
		}
	}
	c := Cond{Left: x, Right: cq.Const(3)}
	if c.String() != "X1=#3" {
		t.Errorf("Cond.String = %q", c.String())
	}
}

func TestUnionColumnsEmpty(t *testing.T) {
	u := NewUnion()
	if u.Columns() != nil {
		t.Error("empty union columns should be nil")
	}
}

func TestSubstituteViewsPanicsOnUnknownNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown node type should panic")
		}
	}()
	SubstituteViews(bogusPlan{}, nil)
}

type bogusPlan struct{}

func (bogusPlan) Columns() []cq.Term        { return nil }
func (bogusPlan) Views(d []ViewID) []ViewID { return d }
func (bogusPlan) String() string            { return "bogus" }

// TestSubstituteViewsLeavesUntouchedPlansAlone: a plan that scans none of the
// substituted views comes back as the same tree without allocating — the
// search substitutes into every rewriting of a union-heavy state on every
// transition.
func TestSubstituteViewsLeavesUntouchedPlansAlone(t *testing.T) {
	x, y := cq.Var(1), cq.Var(2)
	var branches []Plan
	for id := ViewID(1); id <= 40; id++ {
		branches = append(branches, NewProject(NewSelect(NewScan(id, []cq.Term{x, y}), Cond{Left: y, Right: cq.Const(7)}), []cq.Term{x}))
	}
	u := NewUnion(branches...)
	subs := map[ViewID]Plan{99: NewScan(100, []cq.Term{x, y})}
	if got := SubstituteViews(u, subs); got != Plan(u) {
		t.Fatal("untouched union was rebuilt")
	}
	if allocs := testing.AllocsPerRun(100, func() { SubstituteViews(u, subs) }); allocs != 0 {
		t.Errorf("untouched union: %.0f allocations, want 0", allocs)
	}

	subs = map[ViewID]Plan{17: NewScan(100, []cq.Term{x, y})}
	got, ok := SubstituteViews(u, subs).(*Union)
	if !ok || len(got.Branches) != len(u.Branches) {
		t.Fatalf("substituted union: %v", got)
	}
	for i, b := range got.Branches {
		if changed := b != u.Branches[i]; changed != (i == 16) {
			t.Errorf("branch %d: changed = %v", i, changed)
		}
	}
	if ids := SortedViewIDs(got); len(ids) != 40 || ids[len(ids)-1] != 100 {
		t.Errorf("views after substitution: %v", ids)
	}
}
