package analysis

import (
	"go/ast"
	"strings"
)

// Ctxflow enforces context threading. A request's context.Context (carried
// into execution as ExecOptions.Ctx) must flow through call parameters so
// cancellation reaches every tier of one request and only that request.
// Two shapes break the flow:
//
//  1. a context stored in a long-lived struct field outlives the request
//     that minted it — later uses observe a canceled (or never-canceled)
//     context from another request's lifetime. Structs whose name ends in
//     Options, Config or Params are exempt: they are per-call argument
//     bundles, which is exactly how ExecOptions.Ctx threads the engine.
//  2. a function that already receives a context.Context but calls
//     context.Background() or context.TODO() detaches its callees from the
//     caller's cancellation — a scan below such a call keeps running after
//     the client is gone.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "context.Context must be threaded through parameters: not stored in " +
		"long-lived structs, not replaced by a fresh Background/TODO in a " +
		"function that already has one",
	Run: runCtxflow,
}

func runCtxflow(pass *Pass) error {
	for _, f := range pass.Files {
		checkCtxFields(pass, f)
		funcBodies(f, func(_ string, fd *ast.FuncDecl) {
			if hasCtxParam(pass, fd) {
				checkFreshCtx(pass, fd.Body)
			}
		})
	}
	return nil
}

// checkCtxFields flags context.Context struct fields outside per-call
// argument bundles.
func checkCtxFields(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		name := ts.Name.Name
		if strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") ||
			strings.HasSuffix(name, "Params") {
			return true
		}
		for _, fl := range st.Fields.List {
			if isContextType(pass.TypesInfo.Types[fl.Type].Type) {
				pass.Reportf(fl.Pos(), "context.Context stored in struct %s outlives "+
					"the request that created it; thread the context through call "+
					"parameters instead", name)
			}
		}
		return true
	})
}

// hasCtxParam reports whether the function declares a context.Context
// parameter.
func hasCtxParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, p := range fd.Type.Params.List {
		if isContextType(pass.TypesInfo.Types[p.Type].Type) {
			return true
		}
	}
	return false
}

// checkFreshCtx flags context.Background()/context.TODO() calls in a body
// whose function already receives a context.
func checkFreshCtx(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		// The call result being context.Context pins the qualifier to the
		// real context package (or a drop-in with the same contract).
		if tv, ok := pass.TypesInfo.Types[call]; ok && isContextType(tv.Type) {
			pass.Reportf(call.Pos(), "%s.%s() detaches callees from the caller's "+
				"context; pass the ctx parameter through instead", pkg.Name, sel.Sel.Name)
		}
		return true
	})
}
