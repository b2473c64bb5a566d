package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Snappin enforces snapshot discipline. Compiled-plan execution must read
// through the pinned store.Reader (a Snapshot holds every shard pointer it
// resolved at pin time), never the live mutable *store.Store — a plan that
// touches the live store mid-execution can observe a torn epoch when the
// maintainer publishes. Concretely:
//
//  1. any type-level mention of store.Store inside a package named engine is
//     flagged: parameters, struct fields, variable declarations, type
//     assertions and conversions all count. Execution code takes
//     store.Reader; only the maintenance tier may hold the live store.
//  2. in the engine, store and dict packages, a channel send while holding a
//     sync.Mutex/RWMutex is flagged: the shard and dictionary locks guard
//     reads on the query path, and a send under one turns reader stalls
//     into lock convoys (and can deadlock against a consumer that needs the
//     same lock). Locks released by defer are considered held to the end of
//     the function.
//  3. in the root package (named rdfviews), an expression of type
//     *store.Store passed to a function or method of package engine, or
//     given as a composite literal's reader field, is flagged: every product
//     read pins one Snapshot per call, so a query, a materialization or a
//     statistics provider reads one store state however the store moves
//     under it. This is the root-package half of "one read path"; the
//     retired analyzer's row of that name keeps the live Store's own read
//     code out.
var Snappin = &Analyzer{
	Name: "snappin",
	Doc: "compiled-plan execution must use the pinned store.Reader snapshot, " +
		"not the live *store.Store, nor may the root package hand it the live " +
		"store, and must not send on channels while holding shard or " +
		"dictionary locks",
	Run: runSnappin,
}

func runSnappin(pass *Pass) error {
	pkg := pass.Pkg.Name()
	for _, f := range pass.Files {
		switch pkg {
		case "engine":
			checkLiveStoreUse(pass, f)
		case "rdfviews":
			checkRootReads(pass, f)
		}
	}
	if pkg == "engine" || pkg == "store" || pkg == "dict" {
		for _, f := range pass.Files {
			funcBodies(f, func(_ string, fd *ast.FuncDecl) {
				checkLockedSends(pass, fd.Body)
			})
		}
	}
	return nil
}

// checkLiveStoreUse flags every type-position mention of store.Store.
func checkLiveStoreUse(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[sel]
		if !ok || !tv.IsType() {
			return true
		}
		if isNamed(tv.Type, "store", "Store") {
			pass.Reportf(sel.Pos(), "execution code must hold the pinned "+
				"store.Reader snapshot, not the live *store.Store "+
				"(pin once at plan build, read through the Reader)")
		}
		return true
	})
}

// checkRootReads flags the live store handed to the engine or kept as a
// reader.
func checkRootReads(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var held []ast.Expr
		if call, ok := n.(*ast.CallExpr); ok && strings.HasPrefix(objKey(callee(pass.TypesInfo, call)), "engine.") {
			held = call.Args
		} else if kv, ok := n.(*ast.KeyValueExpr); ok && exprString(pass.Fset, kv.Key) == "reader" {
			held = []ast.Expr{kv.Value}
		}
		for _, e := range held {
			if isNamed(pass.TypesInfo.TypeOf(e), "store", "Store") {
				pass.Reportf(e.Pos(), "a root-package read hands the engine the live store; pin one Snapshot per call")
			}
		}
		return true
	})
}

// checkLockedSends walks one function body in source order, tracking which
// mutexes are held, and flags channel sends inside a held region. Function
// literals run later under unknown lock state, so each starts fresh.
func checkLockedSends(pass *Pass, body *ast.BlockStmt) {
	held := map[string]bool{}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkLockedSends(pass, n.Body)
			return false
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held for the rest of the
			// function body; do not treat it as a release here.
			return false
		case *ast.CallExpr:
			if recv, meth, ok := mutexOp(pass, n); ok {
				switch meth {
				case "Lock", "RLock":
					held[exprString(pass.Fset, recv)] = true
				case "Unlock", "RUnlock":
					delete(held, exprString(pass.Fset, recv))
				}
			}
		case *ast.SendStmt:
			if len(held) > 0 {
				pass.Reportf(n.Arrow, "channel send while holding %s; release the "+
					"lock before publishing, or hand the value to a goroutine outside "+
					"the critical section", heldNames(held))
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// mutexOp matches X.Lock/RLock/Unlock/RUnlock where the method belongs to
// sync.Mutex or sync.RWMutex (directly or through an embedded field).
func mutexOp(pass *Pass, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return nil, "", false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for name := range held {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
