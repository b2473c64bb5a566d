package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rdfviews"
)

// TestFlagParsing runs command lines through parseFlags: a value outside a
// flag's vocabulary or range, an unknown flag (the retired -exec-dop among
// them) and a missing -data or -queries exit 2 with a message before anything
// runs, -h exits 0, and accepted command lines yield their config, defaults
// included.
func TestFlagParsing(t *testing.T) {
	defaults := config{dataPath: "d.nt", queryPath: "w.cq", strategy: "dfs", timeout: 10 * time.Second,
		maxRows: 10, shards: 1, staleReads: rdfviews.ServeStale}
	waitFresh := defaults
	waitFresh.staleReads, waitFresh.asyncQueue = rdfviews.WaitFresh, 64
	dual := defaults
	dual.shards, dual.objShards = 4, 4
	cases := []struct {
		args string
		code int
		want *config // the parsed config when the command line runs
	}{
		{"-data d.nt -queries w.cq -stale-reads bogus", 2, nil},
		{"-data d.nt -queries w.cq -exec-dop 4", 2, nil},
		{"-data d.nt -queries w.cq -timeout soon", 2, nil},
		{"-data d.nt -queries w.cq -shards 0", 2, nil},
		{"-data d.nt -queries w.cq -shards -3", 2, nil},
		{"-data d.nt -queries w.cq -shards 1000", 2, nil},
		{"-data d.nt -queries w.cq -object-shards -1", 2, nil},
		{"-data d.nt -queries w.cq -object-shards 257", 2, nil},
		{"-data d.nt -queries w.cq -async-maintain -5", 2, nil},
		{"-data d.nt -queries w.cq -maxrows -1", 2, nil},
		{"-data d.nt", 2, nil},
		{"", 2, nil},
		{"-h", 0, nil},
		{"-data d.nt -queries w.cq", 0, &defaults},
		{"-data d.nt -queries w.cq -async-maintain 64 -stale-reads wait-fresh", 0, &waitFresh},
		{"-data d.nt -queries w.cq -shards 4 -object-shards 4", 0, &dual},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		got, code := parseFlags(strings.Fields(c.args), &stderr)
		if code != c.code {
			t.Errorf("%q: exit %d, want %d; stderr:\n%s", c.args, code, c.code, stderr.String())
			continue
		}
		switch {
		case c.want == nil && got != nil:
			t.Errorf("%q: parsed %+v, want no run", c.args, *got)
		case c.want != nil && (got == nil || *got != *c.want):
			t.Errorf("%q: parsed %+v, want %+v", c.args, got, *c.want)
		}
		if code == 2 && stderr.Len() == 0 {
			t.Errorf("%q: rejected without a message", c.args)
		}
	}
}
