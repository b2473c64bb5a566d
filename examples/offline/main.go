// Offline: the three-tier / disconnected-client scenario of the paper's
// introduction, at a realistic scale.
//
// A synthetic Barton-like dataset plays the server-side database. The client
// registers its query workload once; the server recommends and materializes
// a view set and saves it as a bundle; the client loads the bundle and
// answers every query from the shipped views, with no connection to the
// database. The example verifies the answers match direct evaluation and
// reports the bandwidth saved (view rows vs database rows).
//
// Run: go run ./examples/offline
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"
	"time"

	"rdfviews"
	"rdfviews/internal/datagen"
	"rdfviews/internal/rdf"
	"rdfviews/internal/workload"
)

func main() {
	// Server side: generate the dataset and load it into a Database.
	st, schema := datagen.Generate(datagen.Config{Triples: 20000, Seed: 7})
	var buf strings.Builder
	if err := rdf.Write(&buf, st.Graph()); err != nil {
		log.Fatal(err)
	}
	if err := rdf.Write(&buf, schema.Graph()); err != nil {
		log.Fatal(err)
	}
	db := rdfviews.NewDatabase()
	if _, err := db.LoadGraphString(buf.String()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server database: %d triples, %d schema statements\n",
		db.NumTriples(), db.SchemaSize())

	// Client side: a workload of satisfiable queries.
	qs, err := workload.GenerateSatisfiable(db.Store(), workload.Spec{
		Queries: 4, AtomsPerQuery: 4, Commonality: workload.High, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	w := &rdfviews.Workload{Queries: qs}
	fmt.Printf("client workload: %d queries\n\n", w.Len())

	// The server recommends views (post-reformulation: the database is
	// never saturated) and ships their extents to the client.
	rec, err := db.Recommend(w, rdfviews.Options{
		Reasoning: rdfviews.ReasoningPost,
		Timeout:   5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	mat, err := rec.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	var bundle bytes.Buffer
	if err := mat.SaveBundle(&bundle); err != nil {
		log.Fatal(err)
	}

	// Client side: only the bundle's bytes.
	views, err := rdfviews.LoadBundle(&bundle)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shipped views: %d views, %d rows (%.1f%% of the %d-triple database)\n\n",
		rec.NumViews(), views.NumRows(),
		100*float64(views.NumRows())/float64(db.NumTriples()), db.NumTriples())

	// Disconnected: every query answered from the shipped views; verify
	// against the server's direct (reasoning-aware) evaluation.
	for i := 0; i < views.NumQueries(); i++ {
		fromViews, err := views.Answer(i)
		if err != nil {
			log.Fatal(err)
		}
		direct, err := db.Answer(w.Queries[i], rdfviews.ReasoningPost)
		if err != nil {
			log.Fatal(err)
		}
		status := "OK"
		if len(fromViews) != len(direct) {
			status = "MISMATCH"
		}
		fmt.Printf("q%d: %d answers from views, %d direct — %s\n",
			i+1, len(fromViews), len(direct), status)
	}
}
