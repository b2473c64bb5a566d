// Museum: RDFS reasoning and view selection (Section 4 of the paper).
//
// The database states that m1 is a painting exhibited in the Louvre; the
// schema says every painting is a picture and that isExpIn specializes
// isLocatIn. The query asks for pictures and their locations — every answer
// requires implicit triples.
//
// The example contrasts three reasoning modes: no reasoning (incomplete
// answers), database saturation, and the paper's post-reformulation. By
// Theorem 4.2 the last two answer alike, so saturation runs as
// post-reformulation and the database is never modified.
//
// Run: go run ./examples/museum
package main

import (
	"fmt"
	"log"
	"time"

	"rdfviews"
)

const data = `
m1 rdf:type painting .
m2 rdf:type painting .
m3 rdf:type picture .
m1 isExpIn louvre .
m2 isLocatIn orsay .
m4 isExpIn prado .
`

const schema = `
painting rdfs:subClassOf picture .
isExpIn rdfs:subPropertyOf isLocatIn .
`

const query = `q(X, Y) :- t(X, rdf:type, picture), t(X, isLocatIn, Y)`

func main() {
	for _, mode := range []rdfviews.Reasoning{
		rdfviews.ReasoningNone,
		rdfviews.ReasoningSaturate,
		rdfviews.ReasoningPost,
	} {
		db := rdfviews.NewDatabase()
		db.MustLoadGraphString(data)
		db.MustLoadSchemaString(schema)
		w := db.MustParseWorkload(query)

		rec, err := db.Recommend(w, rdfviews.Options{
			Reasoning: mode,
			Timeout:   2 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		mat, err := rec.Materialize()
		if err != nil {
			log.Fatal(err)
		}
		rows, err := mat.Answer(0)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("reasoning=%s\n", mode)
		fmt.Printf("  views: %d, rcr %.3f\n", rec.NumViews(), rec.RCR())
		for _, v := range rec.ViewDefinitions() {
			fmt.Println("    " + v)
		}
		fmt.Printf("  answers (%d):\n", len(rows))
		for _, row := range rows {
			fmt.Printf("    %v\n", row)
		}
		fmt.Println()
	}
	fmt.Println("Note: 'none' misses every implicit answer; 'saturate' and 'post'")
	fmt.Println("agree (Theorem 4.2): both reformulate over the explicit triples.")
}
