// SPARQL: view selection driven by SPARQL basic graph patterns — the
// paper's query language (the BGP fragment of SPARQL, Section 2) — and the
// SPARQL-over-HTTP serving tier answering the same queries over the wire.
//
// Run: go run ./examples/sparql
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"rdfviews"
	"rdfviews/internal/server"
)

func main() {
	db := rdfviews.NewDatabase()
	db.MustLoadGraphString(`
u1 hasPainted starryNight .
u1 isParentOf u2 .
u2 hasPainted irises .
u2 rdf:type painter .
u1 rdf:type painter .
starryNight rdf:type painting .
irises rdf:type painting .
`)
	db.MustLoadSchemaString(`
painting rdfs:subClassOf artwork .
hasPainted rdfs:range painting .
`)

	w, err := db.ParseSPARQLWorkload(`
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?x ?z WHERE {
    ?x hasPainted starryNight .
    ?x isParentOf ?y .
    ?y hasPainted ?z .
}
;;
SELECT ?w WHERE { ?w a artwork . }
`)
	if err != nil {
		log.Fatal(err)
	}

	rec, err := db.Recommend(w, rdfviews.Options{
		Reasoning: rdfviews.ReasoningPost,
		Timeout:   3 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("views:")
	for _, v := range rec.ViewDefinitions() {
		fmt.Println("  " + v)
	}
	mat, err := rec.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < w.Len(); i++ {
		rows, err := mat.Answer(i)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nquery %d answers:\n", i+1)
		for _, r := range rows {
			fmt.Printf("  %v\n", r)
		}
	}
	// The artwork query answers include paintings known only through the
	// range(hasPainted)=painting and painting ⊑ artwork entailments — the
	// views were reformulated, the database never saturated.

	// The same database behind the network serving tier: internal/server's
	// streaming /sparql endpoint over the post-reformulation answering
	// surface (a maintained Views deployment plugs in the same way via
	// AnswerQueryStream).
	srv, err := server.New(server.Config{
		Backend: server.BackendFunc(func(ctx context.Context, q string) (server.Stream, error) {
			s, err := db.AnswerQueryStream(ctx, q, rdfviews.ReasoningPost)
			if err != nil {
				return nil, err
			}
			return s, nil
		}),
	})
	if err != nil {
		log.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	q := `SELECT ?x ?z WHERE { ?x <hasPainted> <starryNight> . ?x <isParentOf> ?y . ?y <hasPainted> ?z . }`
	resp, err := http.Get(hs.URL + "/sparql?query=" + url.QueryEscape(q))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHTTP %s -> %s\n%s\n", "/sparql?query="+q, resp.Status, body)
}
