package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/dict"
	"rdfviews/internal/engine"
	"rdfviews/internal/rdf"
	"rdfviews/internal/reason"
	"rdfviews/internal/store"
	"rdfviews/internal/workload"
)

// Input generation. Everything the program under test receives is text made
// here: N-Triples data, an N-Triples RDFS, workload queries and SPARQL
// requests. The generator keeps its own copy of the data (a store it never
// shares with the deployment) to sample constants from and to size results.
//
// What -seed varies and what it does not. The seed drives the dataset (every
// triple), every constant sampled from it, the request order and the update
// stream. The *mix* — the RDFS, the query shapes, how many requests of which
// shape — is part of each workload's definition and fixed, the way the
// paper's Barton schema and a YCSB operation mix are fixed: two seeds then
// do statistically the same work, which is what lets a metric be compared
// across runs that used different seeds.

const (
	// mixSeed fixes the RDFS and the generated selection workloads.
	mixSeed = 2011
	// hubs is the number of low-index resources datagen makes hubs (a quarter
	// of all subject/object draws land on them); constants for point queries
	// avoid them so results stay small.
	hubs = 64
)

// scale sizes a run. fullScale is what BENCHMARK.json measures; toyScale
// keeps `go test ./bench` fast.
type scale struct {
	serveTriples   int // serve-* dataset
	selectTriples  int // select-* dataset
	plainQueries   int // select-plain: workload size (6-atom queries)
	plainStates    int // select-plain: MaxStates per Recommend
	reformQueries  int // select-reform: workload size
	reformStates   int // select-reform: MaxStates per Recommend (post and pre each)
	deployStates   int // serve-*: MaxStates of the deployment's Recommend
	bindings       int // serve-point: constants per store-path shape
	adhocSkeletons int // serve-adhoc: distinct lifted skeletons
	updatesPerSec  int // serve-churn: open-loop update rate
	setupReps      int // bring-ups per run (setup_s is their median)
	traceOps       int // traced run: requests per pass (scan: /20, select: reps 2)
}

var fullScale = scale{
	serveTriples: 100000, selectTriples: 50000,
	plainQueries: 20, plainStates: 2500,
	reformQueries: 12, reformStates: 200,
	deployStates: 4000, bindings: 100, adhocSkeletons: 2048,
	updatesPerSec: 1000, setupReps: 3, traceOps: 2000,
}

var toyScale = scale{
	serveTriples: 4000, selectTriples: 3000,
	plainQueries: 6, plainStates: 300,
	reformQueries: 4, reformStates: 100,
	deployStates: 100, bindings: 4, adhocSkeletons: 300,
	updatesPerSec: 200, setupReps: 1, traceOps: 40,
}

// inputs is one workload's generated input set.
type inputs struct {
	triples int
	data    []byte // N-Triples
	schema  []byte // N-Triples RDFS; nil when the workload ignores it
	// workload is the selection workload text: Datalog lines for select-*
	// (what cmd/qgen emits), ";;"-separated SPARQL for serve-* deployments.
	workload string
	sparqlWL bool

	requests []string       // serve-*: request texts in issue order (cycled)
	distinct []string       // serve-*: every distinct request, for the oracle
	routed   map[string]int // request text -> workload query it must route to
	updates  []string       // serve-churn: N-Triples lines, inserted then deleted
}

// shape is a query template over the Barton-like vocabulary: pN is property
// N, cN class N, `a` rdf:type, ?x a variable, and $s / $o a constant sampled
// from the data — a subject (resp. object) of a triple whose property is the
// one in the atom where the placeholder first appears.
type shape struct{ head, body string }

// vocab expands the pN / cN shorthand; every other token is already SPARQL.
func vocab(tok string) string {
	if len(tok) > 1 && (tok[0] == 'p' || tok[0] == 'c') {
		if n, err := strconv.Atoi(tok[1:]); err == nil {
			if tok[0] == 'p' {
				return "<" + datagen.PropName(n) + ">"
			}
			return "<" + datagen.ClassName(n) + ">"
		}
	}
	return tok
}

// sparql renders the shape with the placeholder bound to param.
func (sh shape) sparql(param string) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sb.WriteString(sh.head)
	sb.WriteString(" WHERE {")
	for _, tok := range strings.Fields(sh.body) {
		sb.WriteByte(' ')
		if tok == "$s" || tok == "$o" {
			sb.WriteString(param)
		} else {
			sb.WriteString(vocab(tok))
		}
	}
	sb.WriteString(" }")
	return sb.String()
}

// anchor finds the atom that introduces the placeholder: its property index
// and whether the placeholder is the subject. ok is false for shapes without
// one.
func (sh shape) anchor() (prop int, subject, ok bool) {
	for _, atom := range strings.Split(sh.body, " . ") {
		f := strings.Fields(atom)
		if len(f) != 3 || (f[0] != "$s" && f[2] != "$o") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(f[1], "p"))
		if err != nil {
			panic("bench: placeholder atom needs a pN property: " + atom)
		}
		return n, f[0] == "$s", true
	}
	return 0, false, false
}

// deployShapes is the 10-query workload every serve-* deployment selects
// views for. The first deploySmall are entity-anchored (small answers — the
// view-routed requests of serve-point); the rest are analytic (large extents
// — the view-routed requests of serve-scan). Under pre-reformulation they
// expand to a few hundred union terms in total.
var deployShapes = []shape{
	{"?y ?z", "$s p2 ?y . ?y p3 ?z"},
	{"?y", "$s p3 ?y . ?y a c8"},
	{"?x ?y", "?x p10 $o . ?x p2 ?y"},
	{"?y ?z ?w", "$s p2 ?y . ?y p13 ?z . ?z p6 ?w"},
	{"?x", "?x a c6 . ?x p3 $o"},
	{"?a ?b", "$s p7 ?a . $s p9 ?b"},
	{"?x ?y ?z", "?x p6 ?y . ?y p9 ?z"},
	{"?x ?y", "?x p5 ?y . ?x a c8"},
	{"?x ?y ?z", "?x p10 ?y . ?x p12 ?z"},
	{"?x ?z", "?x p2 ?y . ?y p11 ?z"},
}

const deploySmall = 6

// pointShapes are serve-point's store-path skeletons: point lookups, 2-4 atom
// entity joins and small reformulated type probes. With the deploySmall
// view-routed queries that is 26 lifted skeletons, well inside the 256-entry
// plan cache.
var pointShapes = []shape{
	{"?o", "$s p3 ?o"},
	{"?o", "$s p6 ?o"},
	{"?o", "$s p14 ?o"},
	{"?o", "$s p10 ?o"},
	{"?o", "$s p9 ?o"},
	{"?x", "?x p8 $o"},
	{"?x", "?x p20 $o"},
	{"?x", "?x p2 $o"},
	{"?y ?z", "$s p3 ?y . ?y p2 ?z"},
	{"?y ?z", "$s p9 ?y . ?y p6 ?z"},
	{"?y ?z", "$s p10 ?y . ?y p13 ?z"},
	{"?x ?z", "?x p5 $o . ?x p2 ?z"},
	{"?a ?b", "$s p2 ?a . $s p3 ?b"},
	{"?a ?b ?c", "$s p6 ?a . $s p12 ?b . $s p3 ?c"},
	{"?y ?z ?w", "$s p3 ?y . ?y p2 ?z . ?z p6 ?w"},
	{"?a ?b ?z", "$s p8 ?a . $s p2 ?b . ?b p3 ?z"},
	{"?y", "$s p2 ?y . ?y a c12"},
	{"?y", "$s p6 ?y . ?y a c7"},
	{"?x", "?x p14 $o . ?x a c6"},
	{"?y", "$s p10 ?y . ?y a c9"},
}

// scanShapes are serve-scan's store-path analytics: full property scans,
// chains and stars over the base store (merge and hash joins, 2-shard
// fan-out) and top-of-hierarchy type unions.
var scanShapes = []shape{
	{"?x ?y", "?x p1 ?y"},
	{"?x ?y", "?x p3 ?y"},
	{"?x ?y ?z", "?x p9 ?y . ?y p5 ?z"},
	{"?x ?y ?z", "?x p8 ?y . ?x p3 ?z"},
	{"?x ?y ?z", "?x p13 ?y . ?y p2 ?z"},
	{"?x", "?x a c2"},
	{"?x", "?x a c0"},
	{"?x ?y", "?x a c5 . ?x p2 ?y"},
}

// adhocShapes enumerates serve-adhoc's skeletons: every property pair (and
// property/class pair) below gives a distinct lifted canonical code.
func adhocShapes(n int) []shape {
	const props, classes = 32, 16
	var out []shape
	for a := 0; a < props && len(out) < n; a++ {
		for b := 0; b < props && len(out) < n; b++ {
			out = append(out, shape{"?y ?z", fmt.Sprintf("$s p%d ?y . ?y p%d ?z", a, b)})
		}
	}
	for a := 0; a < props && len(out) < n; a++ {
		for b := a + 1; b < props && len(out) < n; b++ {
			out = append(out, shape{"?a ?b", fmt.Sprintf("$s p%d ?a . $s p%d ?b", a, b)})
		}
	}
	for a := 0; a < props && len(out) < n; a++ {
		for c := 0; c < classes && len(out) < n; c++ {
			out = append(out, shape{"?y", fmt.Sprintf("$s p%d ?y . ?y a c%d", a, c)})
		}
	}
	for a := 0; a < props && len(out) < n; a++ {
		for b := a + 1; b < props && len(out) < n; b++ {
			out = append(out, shape{"?x ?b", fmt.Sprintf("?x p%d $o . ?x p%d ?b", a, b)})
		}
	}
	if len(out) < n {
		panic("bench: adhocShapes cannot enumerate that many skeletons")
	}
	return out
}

// generator samples constants from, and sizes answers on, its private copy
// of the data.
type generator struct {
	st     *store.Store
	schema *reason.Schema
	rng    *rand.Rand
	byProp map[int][]store.Triple
	hubIDs map[dict.ID]bool
}

func newGenerator(st *store.Store, rs *rdf.Schema, seed int64) *generator {
	g := &generator{
		st:     st,
		schema: reason.NewSchema(rs, st.Dict()),
		rng:    rand.New(rand.NewSource(seed)),
		byProp: make(map[int][]store.Triple),
		hubIDs: make(map[dict.ID]bool, hubs),
	}
	for i := 0; i < hubs; i++ {
		if id, ok := st.Dict().LookupIRI(datagen.ResourceName(i)); ok {
			g.hubIDs[id] = true
		}
	}
	return g
}

// param samples a constant for the shape's placeholder, rendered as SPARQL:
// a non-hub resource that occurs in the anchoring position in the data.
func (g *generator) param(sh shape) string {
	prop, subject, ok := sh.anchor()
	if !ok {
		return ""
	}
	ts, ok := g.byProp[prop]
	if !ok {
		if pid, found := g.st.Dict().LookupIRI(datagen.PropName(prop)); found {
			ts = g.st.Match(store.Pattern{store.Wildcard, pid, store.Wildcard})
		}
		g.byProp[prop] = ts
	}
	if len(ts) == 0 {
		return "<" + datagen.ResourceName(hubs) + ">"
	}
	pos := store.O
	if subject {
		pos = store.S
	}
	for try := 0; ; try++ {
		id := ts[g.rng.Intn(len(ts))][pos]
		t := g.st.Dict().MustDecode(id)
		if (t.IsIRI() && !g.hubIDs[id]) || try > 64 {
			return t.String()
		}
	}
}

// rows sizes a request on the generator's copy, under the RDFS.
func (g *generator) rows(text string) int {
	q, err := cq.NewParser(g.st.Dict()).ParseSPARQL(text)
	if err != nil {
		panic("bench: generated request does not parse: " + err.Error())
	}
	u, err := reason.Reformulate(q, g.schema, 0)
	if err != nil {
		panic("bench: generated request does not reformulate: " + err.Error())
	}
	n, err := engine.CountUCQ(g.st, u)
	if err != nil {
		panic(err)
	}
	return n
}

// small renders the shape with a constant under which it has 1..50 answers
// (the best of a few draws if none qualifies: still a valid request).
func (g *generator) small(sh shape) string {
	var text string
	for try := 0; try < 32; try++ {
		text = sh.sparql(g.param(sh))
		if n := g.rows(text); n >= 1 && n <= 50 {
			break
		}
	}
	return text
}

func writeGraph(g rdf.Graph) []byte {
	var buf bytes.Buffer
	if err := rdf.Write(&buf, g); err != nil {
		panic(err) // bytes.Buffer does not fail
	}
	return buf.Bytes()
}

// generateInputs builds the named workload's inputs from the seed.
func generateInputs(name string, seed int64, sc scale) (*inputs, error) {
	rs := datagen.GenerateSchema(datagen.Config{Seed: mixSeed})
	switch name {
	case "select-plain", "select-reform":
		st, _ := datagen.Generate(datagen.Config{Triples: sc.selectTriples, Seed: seed})
		in := &inputs{triples: st.Len(), data: writeGraph(st.Graph())}
		if name == "select-plain" {
			in.workload = plainWorkload(sc)
		} else {
			in.schema = writeGraph(rs.Graph())
			in.workload = reformWorkload(rs, sc)
		}
		return in, nil
	case "serve-point", "serve-adhoc", "serve-scan", "serve-churn":
		st, _ := datagen.Generate(datagen.Config{Triples: sc.serveTriples, Seed: seed})
		g := newGenerator(st, rs, seed)
		in := &inputs{
			triples: st.Len(), data: writeGraph(st.Graph()), schema: writeGraph(rs.Graph()),
			sparqlWL: true, routed: make(map[string]int),
		}
		wl := make([]string, len(deployShapes))
		for i, sh := range deployShapes {
			if i < deploySmall {
				wl[i] = g.small(sh)
			} else {
				wl[i] = sh.sparql("")
			}
		}
		in.workload = strings.Join(wl, "\n;;\n")
		switch name {
		case "serve-point", "serve-churn":
			g.pointRequests(in, wl, sc)
			if name == "serve-churn" {
				g.updates(in, sc)
			}
		case "serve-adhoc":
			// distinct keeps enumeration order: the warm-up issues its first
			// 256, which are then the same shapes under every seed.
			for _, sh := range adhocShapes(sc.adhocSkeletons) {
				in.distinct = append(in.distinct, sh.sparql(g.param(sh)))
			}
			in.requests = append([]string(nil), in.distinct...)
			g.rng.Shuffle(len(in.requests), func(i, j int) {
				in.requests[i], in.requests[j] = in.requests[j], in.requests[i]
			})
		case "serve-scan":
			for _, sh := range scanShapes {
				in.requests = append(in.requests, sh.sparql(""))
			}
			for i := deploySmall; i < len(wl); i++ {
				in.requests = append(in.requests, wl[i])
				in.routed[wl[i]] = i
			}
			in.distinct = in.requests
		}
		return in, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pointRequests builds serve-point's mix: sc.bindings constants per
// store-path shape plus the small workload queries verbatim (these route to
// the maintained views), each repeated so view-routed requests are about a
// seventh of the traffic, all shuffled.
func (g *generator) pointRequests(in *inputs, wl []string, sc scale) {
	for _, sh := range pointShapes {
		for b := 0; b < sc.bindings; b++ {
			text := g.small(sh)
			in.requests = append(in.requests, text)
		}
	}
	routedEach := max(1, len(in.requests)/(6*deploySmall))
	for i := 0; i < deploySmall; i++ {
		in.routed[wl[i]] = i
		for r := 0; r < routedEach; r++ {
			in.requests = append(in.requests, wl[i])
		}
	}
	g.rng.Shuffle(len(in.requests), func(i, j int) {
		in.requests[i], in.requests[j] = in.requests[j], in.requests[i]
	})
	seen := make(map[string]bool, len(in.requests))
	for _, r := range in.requests {
		if !seen[r] {
			seen[r] = true
			in.distinct = append(in.distinct, r)
		}
	}
}

// updates builds serve-churn's update stream: triples absent from the data,
// over the properties the deployment's views are defined on (so every update
// has delta work to do), between non-hub resources.
func (g *generator) updates(in *inputs, sc scale) {
	viewProps := []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12}
	need := sc.updatesPerSec*60/2 + 64 // enough inserts for a 60 s run
	nres := in.triples/8 + 1           // datagen's resource count
	seen := make(map[store.Triple]bool, need)
	d := g.st.Dict()
	for len(in.updates) < need {
		s := datagen.ResourceName(hubs + g.rng.Intn(nres-hubs))
		p := datagen.PropName(viewProps[g.rng.Intn(len(viewProps))])
		o := datagen.ResourceName(hubs + g.rng.Intn(nres-hubs))
		t := store.Triple{d.EncodeIRI(s), d.EncodeIRI(p), d.EncodeIRI(o)}
		if seen[t] || g.st.Contains(t) {
			continue
		}
		seen[t] = true
		in.updates = append(in.updates, fmt.Sprintf("<%s> <%s> <%s> .", s, p, o))
	}
}

// plainWorkload is select-plain's workload: the paper's free-standing
// generator (§6.4) — 6-atom mixed-shape queries with high commonality over
// the dataset's most frequent properties, thinned by atMostPairs.
func plainWorkload(sc scale) string {
	var props, consts []string
	for i := 0; i < 16; i++ {
		props = append(props, datagen.PropName(i))
	}
	props = append(props, rdf.RDFType)
	for i := 0; i < 24; i++ {
		consts = append(consts, datagen.ResourceName(i))
	}
	for i := 0; i < 8; i++ {
		consts = append(consts, datagen.ClassName(i))
	}
	d := dict.New()
	qs := workload.Generate(d, workload.Spec{
		Queries: 3 * sc.plainQueries, AtomsPerQuery: 6,
		Shape: workload.Mixed, Commonality: workload.High,
		PropVocab: props, ConstVocab: consts, Seed: mixSeed,
	})
	return formatWorkload(atMostPairs(qs, sc.plainQueries), d)
}

// atMostPairs keeps the first n queries such that no three have isomorphic
// bodies. High commonality means queries that share a body and differ in
// their heads, which is what View Fusion exploits; but fusing a view that was
// itself the renamed side of an earlier fusion trips a defect this
// benchmark's oracle found at the seed commit — algebra.SubstituteViews
// replaces a scan without re-applying the scan's column renaming, so the
// third query's rewriting projects columns its input does not have and
// Materialized.Answer fails. Pairs fuse once and stay correct. The README
// records the defect; lifting this filter belongs to the change that fixes
// it.
func atMostPairs(qs []*cq.Query, n int) []*cq.Query {
	perBody := make(map[string]int)
	var out []*cq.Query
	for _, q := range qs {
		body := q.Clone()
		body.Head = nil
		code := body.CanonicalCode()
		if perBody[code] == 2 {
			continue
		}
		perBody[code]++
		if out = append(out, q); len(out) == n {
			break
		}
	}
	return out
}

// reformWorkload is select-reform's workload: the paper's dataset-driven
// generator run on a fixed reference dataset, keeping the queries whose
// pre-reformulation stays between 2 and 40 union terms (property and class
// constants reformulate; the free generator's variable classes explode past
// 200 000 terms). Resource constants other than hubs become variables so the
// queries stay satisfiable on every seed's data.
func reformWorkload(rs *rdf.Schema, sc scale) string {
	ref, _ := datagen.Generate(datagen.Config{Triples: 20000, Seed: mixSeed})
	schema := reason.NewSchema(rs, ref.Dict())
	g := newGenerator(ref, rs, mixSeed)
	typeID, _ := ref.Dict().LookupIRI(rdf.RDFType)
	var keep []*cq.Query
	for round := int64(0); len(keep) < sc.reformQueries && round < 8; round++ {
		cands, err := workload.GenerateSatisfiable(ref, workload.Spec{
			Queries: 40, AtomsPerQuery: 3 + int(round%2), Seed: mixSeed + round,
		})
		if err != nil {
			panic(err)
		}
		for _, q := range cands {
			q = g.generalize(q, typeID)
			u, err := reason.Reformulate(q, schema, 40)
			if err != nil || u.Len() < 2 || len(q.Atoms) < 2 {
				continue
			}
			keep = append(keep, q)
		}
	}
	return formatWorkload(atMostPairs(keep, sc.reformQueries), ref.Dict())
}

// generalize replaces every non-hub resource or literal constant in a
// subject or non-type object position by a fresh variable.
func (g *generator) generalize(q *cq.Query, typeID dict.ID) *cq.Query {
	out := q.Clone()
	next := q.MaxVarNum() + 1
	repl := make(map[cq.Term]cq.Term)
	for ai := range out.Atoms {
		for _, pos := range [2]int{0, 2} {
			t := out.Atoms[ai][pos]
			if !t.IsConst() || g.hubIDs[t.ConstID()] {
				continue
			}
			if pos == 2 && out.Atoms[ai][1].IsConst() && out.Atoms[ai][1].ConstID() == typeID {
				continue
			}
			v, ok := repl[t]
			if !ok {
				v = cq.Var(next)
				next++
				repl[t] = v
			}
			out.Atoms[ai][pos] = v
		}
	}
	return out
}

func formatWorkload(qs []*cq.Query, d *dict.Dictionary) string {
	lines := make([]string, len(qs))
	for i, q := range qs {
		lines[i] = q.Format(d)
	}
	return strings.Join(lines, "\n")
}
