package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// Shared type matchers. The analyzers identify the engine's protocol types
// nominally — a named type `Cursor` from a package named `store`, the
// package-local `batch` and `interrupt` types — rather than by
// import path, so the fixture packages under testdata (module lintfixtures)
// can replicate the shapes without importing the real engine.

// deref unwraps pointers and returns the named type beneath, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n == nil {
		if p, ok := t.(*types.Pointer); ok {
			n, _ = p.Elem().(*types.Named)
		}
	}
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// typeName declared in a package named pkgName. An empty pkgName matches any
// package, including the package being analyzed.
func isNamed(t types.Type, pkgName, typeName string) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	if n.Obj().Name() != typeName {
		return false
	}
	if pkgName == "" {
		return true
	}
	return n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == pkgName
}

// methodCall matches a call of the form X.name(...) and returns X.
func methodCall(call *ast.CallExpr, name string) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, false
	}
	return sel.X, true
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool { return isNamed(t, "context", "Context") }

// exprString renders an expression for use in diagnostics and as a map key.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	return buf.String()
}

// funcBodies yields every function body in the file with its enclosing name:
// declared functions and methods. Function literals are part of the
// enclosing body and are handled by each analyzer's own walk.
func funcBodies(f *ast.File, fn func(name string, decl *ast.FuncDecl)) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			fn(fd.Name.Name, fd)
		}
	}
}

// recvNamed returns the named type of a method's receiver, or nil for
// plain functions.
func recvNamed(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	return namedOf(info.Types[fd.Recv.List[0].Type].Type)
}
