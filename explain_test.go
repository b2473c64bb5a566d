package rdfviews

import (
	"strings"
	"testing"
	"time"
)

func TestExplainReportsViewsAndPlans(t *testing.T) {
	db := paintersDB(t)
	w := db.MustParseWorkload(paintersQuery + "\nq(A, B) :- t(A, hasPainted, B)")
	rec, err := db.Recommend(w, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	vs := rec.ViewStats()
	if len(vs) != rec.NumViews() {
		t.Fatalf("ViewStats = %d, views = %d", len(vs), rec.NumViews())
	}
	for _, v := range vs {
		if v.EstRows < 0 || v.EstBytes < 0 || v.Atoms <= 0 {
			t.Errorf("bad view stat: %+v", v)
		}
		if !strings.Contains(v.Definition, "t(") {
			t.Errorf("definition not rendered: %q", v.Definition)
		}
	}
	ps := rec.PlanStats()
	if len(ps) != 2 {
		t.Fatalf("PlanStats = %d", len(ps))
	}
	for _, p := range ps {
		if p.EstIO <= 0 {
			t.Errorf("io estimate missing: %+v", p)
		}
		if p.Query == "" || p.Plan == "" {
			t.Errorf("rendering missing: %+v", p)
		}
	}
	report := rec.Explain()
	for _, want := range []string{"search:", "cost:", "breakdown:", "views", "rewritings:", "rcr", "physical plans:"} {
		if !strings.Contains(report, want) {
			t.Errorf("Explain missing %q:\n%s", want, report)
		}
	}
}

func TestExplainPhysicalRendersOperators(t *testing.T) {
	db := paintersDB(t)
	w := db.MustParseWorkload(paintersQuery)
	rec, err := db.Recommend(w, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	phys := rec.ExplainPhysical()
	for _, want := range []string{
		"view materialization", "rewriting execution",
		"IndexScan", "perm=", "prefix=", "ViewScan",
	} {
		if !strings.Contains(phys, want) {
			t.Errorf("ExplainPhysical missing %q:\n%s", want, phys)
		}
	}
}

func TestExplainQueryDirect(t *testing.T) {
	db := paintersDB(t)
	w := db.MustParseWorkload(paintersQuery)
	out, err := db.ExplainQuery(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"IndexScan", "perm=", "Project"} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainQuery missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "MergeJoin") && !strings.Contains(out, "HashJoin") {
		t.Errorf("ExplainQuery shows no join operator:\n%s", out)
	}
}

// TestExplainPhysicalGoldenPostUnionLeaf: under post-reformulation a view is
// materialized as its reformulation factored per atom, so ExplainPhysical
// renders one store plan whose reformulated atom is a union leaf of its
// alternatives — the plan Materialize and Maintain run — and not a plan of
// the view itself.
func TestExplainPhysicalGoldenPostUnionLeaf(t *testing.T) {
	db := NewDatabase()
	db.MustLoadGraphString(museumData)
	db.MustLoadSchemaString(museumSchema)
	w := db.MustParseWorkload(`q(X) :- t(X, rdf:type, picture)`)
	rec, err := db.Recommend(w, Options{Reasoning: ReasoningPost, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const want = `physical plans:
  view materialization (over the store):
    v1:
      Project [X1]
        IndexScan t(X1, #2, #6) perm=pos prefix=2 ∪{t(X1, #2, #6) perm=pos, t(X1, #2, #3) perm=pos} batch=1024  (≈3 rows)
  rewriting execution (over the views):
    q1:
      ViewScan v1[X1] batch=1024  (≈3 rows)
`
	if got := rec.ExplainPhysical(); got != want {
		t.Errorf("ExplainPhysical\n got:\n%s\nwant:\n%s", got, want)
	}
}
