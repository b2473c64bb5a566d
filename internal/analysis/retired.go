package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// Retired keeps deleted paths deleted. Every change that left one way of
// doing something ("one union", "one read path", …) adds a row to
// retiredRows, and a fixture under testdata/src/retired/bad that trips it,
// so the second way cannot come back unnoticed.
//
// A row reads the files whose "pkgname/file.go" matches in (nil: every
// file) and not out, its _test.go files only if tests, and bench/ only if
// bench. There it forbids four kinds of thing:
//
//   - identifiers: one whose name matches ids, a selector expression whose
//     text matches sels, or a declared (decls) or referenced (uses)
//     package-level object or method whose key matches — pkg.Name or
//     pkg.Type.Method, packages by name, resolved through go/types;
//   - string literals whose value matches strs;
//   - a bound: other than exactly one call site of the function, or
//     composite literal of the type, whose key is site;
//   - a field of a named struct: decls also sees each field of a declared
//     struct type as pkg.Type.field, a space and its underlying type.
//
// Rows match code, not comments. A step whose parts read different scopes is
// several rows with one name. Unlike the suite's other analyzers, a row may
// read test files.
var Retired = &Analyzer{
	Name:  "retired",
	Doc:   "paths a \"one X\" change deleted stay deleted: forbidden identifiers, strings, call-site bounds and struct fields",
	Run:   runRetired,
	Tests: true,
}

type row struct {
	name, msg                             string // the CI step the row replaced; what it reports
	in, out, ids, sels, decls, uses, strs *regexp.Regexp
	tests, bench                          bool
	site                                  string // with a bound: the one function called, or type built
}

var re = regexp.MustCompile

// retiredRows holds one or more rows per retired path, each commented with
// the commit that retired it.
var retiredRows = []row{
	// Retired by 48edf13 (the row-at-a-time fork), 4ad6766 (the parallel
	// rewriting executor), 474e9c1 (the shard exchange) and dd8968f (the
	// shard walk and a second cursor decode path).
	{name: "no second execution protocol", tests: true, bench: true, sels: re(`\.DOP$`), strs: re(`^(exec-dop|ParallelScan|Gather)$`), ids: re(`VecOff|VecMode|enablePlannerDepth|enableRewriteBuildSide|vecSink|drainInto|describeRel|selectChainOverScan|HashJoinBuildLeftOp|ParallelUnionOp|^vop$|ExecDOP|ExplainPhysicalDOP|parallelHashJoinOp|newRelExchange|parallelRewriteMinRows|splitProbeStreams|pushbackOp|^ShardCursor$|exchangeOp|gatherMergeOp|scanShard|batchPool|parallelScanMinRows|RouteShardCursor|byShard|cleanSubs`), msg: "a retired execution-protocol switch or operator family is back"},
	// Retired by 7399eb2, one statistics provider per database version.
	{name: "no second statistics pin", tests: true, bench: true, ids: re(`NewReformulatedStatsFrom|reformGlobals`), msg: "a retired way of carrying post-reformulation statistics across calls is back"},
	// Retired by aa060a9, one answering path in the facade.
	{name: "one answering path", tests: true, ids: re(`decodeRows|answerCached|explainCached|serveArtifactFor|artifactValid|compileServeArtifact|epochPin|SearchParallel|RunLoad`), msg: "a retired answering path, decoder, parallel search or load harness is back"},
	// Retired by bce7e09, one canonical labeling.
	{name: "one canonical labeling", tests: true, ids: re(`headToken`), sels: re(`\.Canonicalize$`), msg: "a retired canonical-identity path is back"},
	// Retired by 4127e67, interned state identity.
	{name: "one state identity", tests: true, bench: true, decls: re(`^\w+\.NewView$`), msg: "a view constructor that skips interning is back; build views with Ctx.NewView"},
	// Retired by 541af6a, one way in and one way out of the engine.
	{name: "one way into the engine", tests: true, bench: true, decls: re(`^\w+\.materialize$`), ids: re(`EvalQuery$|EvalUCQ$|CountQuery$|ExecuteWithOptions|EvalWithOptions|DescribePlanWithOptions`), msg: "a retired engine entry point or materializing drain is back"},
	// Retired by c3320f3, one union, one projection, one drain.
	{name: "one union", in: re(`^engine/`), site: "engine.concatOp", ids: re(`^unionEst$`), decls: re(`^engine\.RowStream\.\w+ func\(`), msg: "newUnion builds the one concatOp and sizes every union's set; a RowStream drains one root operator, not closures"},
	// Retired by 971dc20, leg-local derive.
	{name: "one leg rewrite", in: re(`^core/`), site: "algebra.SubstituteViews", msg: "State.build's deferred leg rewrite is the search kernel's one SubstituteViews call"},
	// Retired by c6d23f4, one maintenance fold.
	{name: "one maintenance fold", in: re(`^maintain/`), site: "maintain.Maintainer.rederivable", msg: "apply's DRed check is the one rederivable call"},
	{name: "one maintenance fold", tests: true, bench: true, ids: re(`NewWithConfig|BatchMax|applyBatch`), msg: "NewWithConfig, BatchMax and applyBatch are retired: maintain.New(st, views, queueDepth) and apply"},
	// Retired by 25353c6, one view deployment.
	{name: "one view deployment", bench: true, decls: re(`^\w+\.(Materialized|OfflineViews)$`), msg: "a second view-deployment type is back; Materialize, Maintain and LoadBundle return Views"},
	{name: "one view deployment", in: re(`^rdfviews/`), site: "rdfviews.openRewriting", msg: "Views.rewriting is the one caller of openRewriting"},
	// Retired by b0362c6, store triples in 32-bit columns.
	{name: "32-bit store columns", in: re(`^store/`), decls: re(`^store\.snap\.\w+ \[\]store\.Triple$`), msg: "a store snapshot keeps 24-byte Triple rows again; store packed 32-bit columns"},
	// Retired by 001e4e0, view extents in 32-bit columns.
	{name: "32-bit extents", in: re(`^engine/`), decls: re(`^engine\.Relation\.\w+ \[\]engine\.Row$`), msg: "a Relation keeps []Row rows again; store its values in 32-bit column slabs"},
	// Retired by 3de324b, one row set.
	{name: "one row set", in: re(`^engine/`), ids: re(`rowSet|RowSet|rowSlot|rowArena`), decls: re(`^engine\.joinTable\.flat `), msg: "a second set of rows is back; keep seen rows in a RowIndex over a Relation, drain a build side into one"},
	// Retired by 250d169, one read path; the root package's reads of the live
	// store are snappin's.
	{name: "one read path", in: re(`^store/`), ids: re(`routeShards|statsGen|DistinctInColumn`), msg: "the live Store has read code of its own again; read through a pinned Snapshot"},
	// Retired by e3c3044, answers encoded from IDs.
	{name: "one row encoder", in: re(`^server/|^rdfviews/serve_stream\.go$`), decls: re(`^server\.encoder\.rows$`), ids: re(`^(memoEntry|maxStreamMemo)$`), msg: "rows are decoded to strings again; append them from IDs (Stream.AppendRows, dict.Render)"},
	// Retired by 9ae8194, one reasoning rule (Theorem 4.2).
	{name: "one reasoning rule", tests: true, bench: true, ids: re(`saturatedFor|matStore`), sels: re(`pin\.sat|\.pinned$`), strs: re(`^db:sat$`), msg: "a saturated copy of the store or its pin is back"},
	{name: "one reasoning rule", out: re(`^(reason|exp)/`), bench: true, uses: re(`^reason\.Saturate$`), msg: "a saturated store is built outside internal/reason and internal/exp"},
	// Retired by 546964b, the paper harness through Database.Recommend.
	{name: "one objective", out: re(`^rdfviews/recommend\.go$`), uses: re(`^(core\.(Search|InitialState(UCQ)?)|cost\.(NewEstimator|Estimator\.CalibrateCM))$`), msg: "view selection runs outside Database.Recommend"},
	// Retired by the change to four kept orders: no side stores SOP or OPS,
	// a read sorts the run it needs from SPO or OSP.
	{name: "four kept orders", in: re(`^store/`), site: "store.resortedRuns", msg: "snap.derived is the one resortedRuns call; SOP and OPS are read from SPO and OSP, not built"},
	// Retired by the change to one arena dictionary: term bytes in an
	// append-only arena, IDs in an open-addressed table over it.
	{name: "arena dictionary", in: re(`^dict/`), decls: re(`^dict\.Dictionary\.\w+ (\[\]rdf\.Term|(\[\d+\])?map\[string\]dict\.ID)$`), msg: "the dictionary keeps an rdf.Term slice or value-keyed maps again; keep term bytes in its arena and IDs in its table"},
	// Retired by the change to sorted extents: a maintained extent is a
	// Relation kept sorted on its columns, its order its index.
	{name: "sorted extents", in: re(`^maintain/`), decls: re(`^maintain\.\w+\.\w+ .*\bengine\.RowIndex\b`), msg: "a maintained extent carries a RowIndex again; keep it an engine.Relation in Sorted order and change it with engine.Merged"},
	// Retired by a238aa1, reformulation per atom on the serving path, and by
	// the change to one store form: views are materialized, maintained and
	// explained per atom too, and the product form is pre's initial state only.
	{name: "one store form", in: re(`^rdfviews/`), site: "reason.Reformulate", msg: "the root package runs reformulation's product form again; Recommend's pre-reformulation initial state is its one reason.Reformulate call"},
	{name: "one store form", in: re(`^rdfviews/`), site: "reason.ReformulateAtoms", msg: "storeForm is the one reason.ReformulateAtoms call; views and queries take their store form from it"},
}

func runRetired(pass *Pass) error {
	info := pass.TypesInfo
	for _, r := range retiredRows {
		report := func(pos token.Pos, what string) { pass.Reportf(pos, "%s: %s (%s)", r.name, r.msg, what) }
		sites, at := 0, token.NoPos // at: the last site, else the first file read
		for _, f := range pass.Files {
			if !r.reads(pass, f) {
				continue
			}
			if at == token.NoPos {
				at = f.Name.Pos()
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var site types.Object
				switch n := n.(type) {
				case *ast.Ident:
					if matches(r.ids, n.Name) || r.decls != nil && matches(r.decls, objKey(info.Defs[n])) || r.uses != nil && matches(r.uses, objKey(info.Uses[n])) {
						report(n.Pos(), n.Name)
					}
				case *ast.SelectorExpr:
					if s := exprString(pass.Fset, n); matches(r.sels, s) {
						report(n.Sel.Pos(), s)
					}
				case *ast.BasicLit:
					if v, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && matches(r.strs, v) {
						report(n.Pos(), n.Value)
					}
				case *ast.TypeSpec:
					st, _ := info.TypeOf(n.Name).Underlying().(*types.Struct)
					for i := 0; r.decls != nil && st != nil && i < st.NumFields(); i++ {
						if fd, key := st.Field(i), objKey(info.Defs[n.Name])+"."+st.Field(i).Name(); matches(r.decls, key+" "+types.TypeString(fd.Type().Underlying(), (*types.Package).Name)) {
							report(fd.Pos(), key)
						}
					}
				case *ast.CallExpr:
					site = callee(info, n)
				case *ast.CompositeLit:
					if nt := namedOf(info.TypeOf(n)); nt != nil {
						site = nt.Obj()
					}
				}
				if r.site != "" && site != nil && objKey(site) == r.site {
					sites, at = sites+1, n.Pos()
				}
				return true
			})
		}
		if at != token.NoPos && r.site != "" && sites != 1 {
			pass.Reportf(at, "%s: %s (want one site of %s, found %d)", r.name, r.msg, r.site, sites)
		}
	}
	return nil
}

func (r row) reads(pass *Pass, f *ast.File) bool {
	file := filepath.Base(pass.Fset.Position(f.Package).Filename)
	at, bench := pass.Pkg.Name()+"/"+file, strings.HasSuffix(strings.TrimSuffix(pass.Pkg.Path(), "_test"), "/bench")
	return (r.tests || !strings.HasSuffix(file, "_test.go")) && (r.bench || !bench) && (r.in == nil || r.in.MatchString(at)) && (r.out == nil || !r.out.MatchString(at))
}

func matches(re *regexp.Regexp, s string) bool { return re != nil && s != "" && re.MatchString(s) }

// objKey names a package-level object pkg.Name and a method pkg.Type.Name,
// packages by name; any other object has no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	key := obj.Pkg().Name() + "."
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && namedOf(sig.Recv().Type()) != nil {
		key += namedOf(sig.Recv().Type()).Obj().Name() + "."
	} else if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return key + obj.Name()
}
