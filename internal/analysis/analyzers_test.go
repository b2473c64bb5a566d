package analysis

import (
	"strings"
	"testing"
)

func TestCancelcheckBad(t *testing.T)   { runFixture(t, Cancelcheck, "cancel/bad") }
func TestCancelcheckClean(t *testing.T) { runFixture(t, Cancelcheck, "cancel/clean") }

func TestBatchleaseBad(t *testing.T)   { runFixture(t, Batchlease, "batch/bad") }
func TestBatchleaseClean(t *testing.T) { runFixture(t, Batchlease, "batch/clean") }

func TestSnappinBad(t *testing.T)   { runFixture(t, Snappin, "snap/bad") }
func TestSnappinClean(t *testing.T) { runFixture(t, Snappin, "snap/clean") }

func TestCtxflowBad(t *testing.T)   { runFixture(t, Ctxflow, "ctx/bad") }
func TestCtxflowClean(t *testing.T) { runFixture(t, Ctxflow, "ctx/clean") }

// retiredSteps names the CI grep steps the retired table replaced. A row
// may not vanish, and a step may not be renamed, without this list changing.
var retiredSteps = []string{
	"no second execution protocol", "no second statistics pin", "one answering path",
	"one canonical labeling", "one state identity", "one way into the engine",
	"one union", "one leg rewrite", "one maintenance fold", "one view deployment",
	"32-bit store columns", "32-bit extents", "one row set", "one read path",
	"one row encoder", "one reasoning rule", "one objective", "one store form",
	"four kept orders", "arena dictionary", "sorted extents",
}

// TestRetiredBad runs each step's fixture, testdata/src/retired/bad/<name
// with dashes>: its wants must match exactly, and every row of that name must
// trip there.
func TestRetiredBad(t *testing.T) {
	names := map[string]bool{}
	for _, r := range retiredRows {
		names[r.name] = true
	}
	for _, step := range retiredSteps {
		if !names[step] {
			t.Errorf("step %q has no row", step)
		}
		delete(names, step)
	}
	for name := range names {
		t.Errorf("row %q replaces no listed step", name)
	}
	for _, step := range retiredSteps {
		t.Run(step, func(t *testing.T) {
			diags := runFixture(t, Retired, "retired/bad/"+strings.ReplaceAll(step, " ", "-"))
			for _, r := range retiredRows {
				tripped := r.name != step
				for _, d := range diags {
					tripped = tripped || strings.HasPrefix(d.Message, r.name+": "+r.msg)
				}
				if !tripped {
					t.Errorf("row %q (%s) trips nothing in its fixture", r.name, r.msg)
				}
			}
		})
	}
}

func TestRetiredClean(t *testing.T) { runFixture(t, Retired, "retired/clean") }

// TestRepoClean is the in-repo form of the CI lint gate: the whole module
// must hold every invariant the suite encodes. Seeding a violation (for
// example deleting a checkpoint call in internal/engine/pipeline.go) makes this
// test — and the vettool run in CI — fail.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load skipped in -short")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, err := Run(All(), pkgs)
	if err != nil {
		t.Fatalf("run analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
