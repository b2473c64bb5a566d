package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"rdfviews/internal/datagen"
	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
	"rdfviews/internal/workload"
)

// TestFlagParsing runs the subcommands' flag parsing through run: a value
// outside a flag's vocabulary exits 2 before anything runs instead of falling
// back to a default, and accepted values reach the generators. An unknown
// experiment fails after parsing (status 1), which is how the -exp cases
// check that their flags parsed without running an experiment.
func TestFlagParsing(t *testing.T) {
	queries := func(spec workload.Spec) string {
		var sb strings.Builder
		d := dict.New()
		for _, q := range workload.Generate(d, spec) {
			sb.WriteString(q.Format(d) + "\n")
		}
		return sb.String()
	}
	data := func(triples int, seed int64) string {
		st, schema := datagen.Generate(datagen.Config{Triples: triples, Seed: seed})
		var buf bytes.Buffer
		if err := rdf.Write(&buf, st.Graph()); err != nil {
			t.Fatal(err)
		}
		if err := rdf.Write(&buf, schema.Graph()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cases := []struct {
		args string
		code int
		out  string // expected stdout unless the run fails (status 1)
	}{
		{"queries -commonality hihg", 2, ""},
		{"queries -shape blob", 2, ""},
		{"queries -triples 10", 2, ""},
		{"queries", 0, queries(workload.Spec{Queries: 5, AtomsPerQuery: 5, Shape: workload.Star, Seed: 1})},
		{"queries -n 3 -atoms 4 -shape chain -commonality high -seed 9", 0,
			queries(workload.Spec{Queries: 3, AtomsPerQuery: 4, Shape: workload.Chain, Commonality: workload.High, Seed: 9})},
		{"queries -h", 0, ""},
		{"data -triples many", 2, ""},
		{"data -triples 300 -seed 3", 0, data(300, 3)},
		{"-scale large", 2, ""},
		{"-sizes 5,x", 2, ""},
		{"-exp none -scale medium", 1, ""},
		{"-exp none -sizes 5,10 -seed 7 -triples 1234", 1, ""},
		{"generate", 2, ""},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c.args), &stdout, &stderr)
		if code != c.code {
			t.Errorf("%q: exit %d, want %d; stderr:\n%s", c.args, code, c.code, stderr.String())
			continue
		}
		if code != 1 && stdout.String() != c.out {
			t.Errorf("%q: stdout:\n%s\nwant:\n%s", c.args, stdout.String(), c.out)
		}
		if code == 2 && stderr.Len() == 0 {
			t.Errorf("%q: rejected without a message", c.args)
		}
	}
	missing := filepath.Join(t.TempDir(), "missing.nt")
	if code := run([]string{"queries", "-data", missing}, io.Discard, io.Discard); code != 1 {
		t.Errorf("missing dataset: exit %d, want 1", code)
	}
}
