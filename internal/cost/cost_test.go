package cost

import (
	"testing"

	"rdfviews/internal/algebra"
	"rdfviews/internal/cq"
	"rdfviews/internal/dict"
)

// fakeStats is a hand-tuned provider: 1000 triples, distinct counts
// s=100, p=10, o=200, widths 10/20/30, and per-pattern counts.
type fakeStats struct {
	counts map[string]float64
}

func (f *fakeStats) AtomCount(a cq.Atom) float64 {
	key := ""
	for i := 0; i < 3; i++ {
		if a[i].IsConst() {
			key += "c"
		} else {
			key += "*"
		}
	}
	if c, ok := f.counts[key]; ok {
		return c
	}
	return 1000
}
func (f *fakeStats) TotalTriples() float64 { return 1000 }
func (f *fakeStats) DistinctCount(col int) float64 {
	return [3]float64{100, 10, 200}[col]
}
func (f *fakeStats) AvgWidth(col int) float64 {
	return [3]float64{10, 20, 30}[col]
}

func newFakeEstimator() *Estimator {
	return NewEstimator(&fakeStats{counts: map[string]float64{
		"*c*": 50, // one constant in p
		"*cc": 5,  // constants in p and o
		"***": 1000,
	}}, DefaultWeights())
}

func TestViewCardinalitySingleAtom(t *testing.T) {
	e := newFakeEstimator()
	v := &cq.Query{Head: []cq.Term{cq.Var(1)}, Atoms: []cq.Atom{{cq.Var(1), cq.Const(5), cq.Var(2)}}}
	if got := e.ViewCardinality(v); got != 50 {
		t.Errorf("card = %v, want 50 (exact atom count)", got)
	}
	v2 := &cq.Query{Head: []cq.Term{cq.Var(1)}, Atoms: []cq.Atom{{cq.Var(1), cq.Const(5), cq.Const(9)}}}
	if got := e.ViewCardinality(v2); got != 5 {
		t.Errorf("card = %v, want 5", got)
	}
}

func TestViewCardinalityJoin(t *testing.T) {
	e := newFakeEstimator()
	// Two p-constant atoms joined s-s: 50*50 / max(V(s),V(s)) with V capped
	// at min(card=50, distinct(s)=100) = 50 => 50*50/50 = 50.
	x, y, z := cq.Var(1), cq.Var(2), cq.Var(3)
	v := &cq.Query{Head: []cq.Term{x}, Atoms: []cq.Atom{
		{x, cq.Const(5), y},
		{x, cq.Const(6), z},
	}}
	if got := e.ViewCardinality(v); got != 50 {
		t.Errorf("join card = %v, want 50", got)
	}
}

func TestViewCardinalityRepeatedVarInAtom(t *testing.T) {
	e := newFakeEstimator()
	x := cq.Var(1)
	// t(X, c, X): 50 / max(V(s),V(o)) = 50 / min-capped... V(s)=min(50,100)=50,
	// V(o)=min(50,200)=50 => 50/50 = 1.
	v := &cq.Query{Head: []cq.Term{x}, Atoms: []cq.Atom{{x, cq.Const(5), x}}}
	if got := e.ViewCardinality(v); got != 1 {
		t.Errorf("card = %v, want 1", got)
	}
}

func TestViewRowWidthUsesFirstOccurrence(t *testing.T) {
	e := newFakeEstimator()
	x, y := cq.Var(1), cq.Var(2)
	v := &cq.Query{Head: []cq.Term{x, y}, Atoms: []cq.Atom{{x, cq.Const(5), y}}}
	// x first occurs in s (width 10), y in o (width 30).
	if got := e.ViewRowWidth(v); got != 40 {
		t.Errorf("width = %v, want 40", got)
	}
}

func TestVMC(t *testing.T) {
	e := newFakeEstimator()
	x, y, z := cq.Var(1), cq.Var(2), cq.Var(3)
	views := map[algebra.ViewID]*cq.Query{
		1: {Head: []cq.Term{x}, Atoms: []cq.Atom{{x, cq.Const(5), y}}},                      // f^1 = 2
		2: {Head: []cq.Term{x}, Atoms: []cq.Atom{{x, cq.Const(5), y}, {y, cq.Const(6), z}}}, // f^2 = 4
	}
	if got := e.CostState(views, nil).VMC; got != 6 {
		t.Errorf("VMC = %v, want 6", got)
	}
}

func TestPlanCostScanSelectProject(t *testing.T) {
	e := newFakeEstimator()
	x, y := cq.Var(1), cq.Var(2)
	v := &cq.Query{Head: []cq.Term{x, y}, Atoms: []cq.Atom{{x, cq.Const(5), y}}}
	views := map[algebra.ViewID]*cq.Query{1: v}
	scan := algebra.NewScan(1, []cq.Term{x, y})
	sc := e.PlanCost(scan, views)
	if sc.Card != 50 || sc.IO != 50 || sc.CPU != 0 {
		t.Errorf("scan: %+v", sc)
	}
	sel := algebra.NewSelect(scan, algebra.Cond{Left: y, Right: cq.Const(9)})
	selc := e.PlanCost(sel, views)
	if selc.CPU != 50 {
		t.Errorf("select cpu = %v, want 50", selc.CPU)
	}
	if selc.Card >= 50 || selc.Card <= 0 {
		t.Errorf("select card = %v, want in (0,50)", selc.Card)
	}
	proj := algebra.NewProject(sel, []cq.Term{x})
	pc := e.PlanCost(proj, views)
	if pc.CPU != selc.CPU {
		t.Errorf("projection must be free: %v vs %v", pc.CPU, selc.CPU)
	}
}

func TestPlanCostJoinAndUnion(t *testing.T) {
	e := newFakeEstimator()
	x, y, z := cq.Var(1), cq.Var(2), cq.Var(3)
	v1 := &cq.Query{Head: []cq.Term{x, y}, Atoms: []cq.Atom{{x, cq.Const(5), y}}}
	v2 := &cq.Query{Head: []cq.Term{y, z}, Atoms: []cq.Atom{{y, cq.Const(6), z}}}
	views := map[algebra.ViewID]*cq.Query{1: v1, 2: v2}
	join := algebra.NewJoin(
		algebra.NewScan(1, []cq.Term{x, y}),
		algebra.NewScan(2, []cq.Term{y, z}),
	)
	jc := e.PlanCost(join, views)
	if jc.IO != 100 {
		t.Errorf("join io = %v, want 100", jc.IO)
	}
	if jc.CPU <= 100 {
		t.Errorf("join cpu = %v, want > 100 (build+probe+emit)", jc.CPU)
	}
	// Natural join on y: 50*50/max(V(o of v1)=50, V(s of v2)=50) = 50.
	if jc.Card != 50 {
		t.Errorf("join card = %v, want 50", jc.Card)
	}
	u := algebra.NewUnion(algebra.NewScan(1, []cq.Term{x, y}), algebra.NewScan(2, []cq.Term{y, z}))
	uc := e.PlanCost(u, views)
	if uc.Card != 100 || uc.IO != 100 {
		t.Errorf("union: %+v", uc)
	}
}

func TestCostStateAndCalibrate(t *testing.T) {
	e := newFakeEstimator()
	x, y := cq.Var(1), cq.Var(2)
	v := &cq.Query{Head: []cq.Term{x, y}, Atoms: []cq.Atom{{x, cq.Const(5), y}}}
	views := map[algebra.ViewID]*cq.Query{1: v}
	plans := []algebra.Plan{algebra.NewScan(1, []cq.Term{x, y})}
	b := e.CostState(views, plans)
	if b.VSO <= 0 || b.REC <= 0 || b.VMC <= 0 {
		t.Fatalf("breakdown: %+v", b)
	}
	want := e.W.CS*b.VSO + e.W.CR*b.REC + e.W.CM*b.VMC
	if b.Total != want {
		t.Errorf("Total = %v, want %v", b.Total, want)
	}
	cm := e.CalibrateCM(views, plans)
	if cm <= 0 {
		t.Errorf("CalibrateCM = %v", cm)
	}
	// Calibrated cm places cm·VMC exactly two orders below the rest.
	if got := cm * b.VMC * 100; got < 0.99*(b.VSO+b.REC) || got > 1.01*(b.VSO+b.REC) {
		t.Errorf("calibration off: %v vs %v", got, b.VSO+b.REC)
	}
}

func TestDefaultWeights(t *testing.T) {
	w := DefaultWeights()
	if w.CS != 1 || w.CR != 1 || w.CM != 0.5 || w.F != 2 || w.C1 != 1 || w.C2 != 1 {
		t.Errorf("DefaultWeights = %+v", w)
	}
}

var _ = dict.New // keep dict linked for helper parity with other tests
