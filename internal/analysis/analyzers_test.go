package analysis

import "testing"

func TestCancelcheckBad(t *testing.T)   { runFixture(t, Cancelcheck, "cancel/bad") }
func TestCancelcheckClean(t *testing.T) { runFixture(t, Cancelcheck, "cancel/clean") }

func TestBatchleaseBad(t *testing.T)   { runFixture(t, Batchlease, "batch/bad") }
func TestBatchleaseClean(t *testing.T) { runFixture(t, Batchlease, "batch/clean") }

func TestSnappinBad(t *testing.T)   { runFixture(t, Snappin, "snap/bad") }
func TestSnappinClean(t *testing.T) { runFixture(t, Snappin, "snap/clean") }

func TestCtxflowBad(t *testing.T)   { runFixture(t, Ctxflow, "ctx/bad") }
func TestCtxflowClean(t *testing.T) { runFixture(t, Ctxflow, "ctx/clean") }

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
