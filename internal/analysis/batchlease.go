package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Batchlease enforces the pooled-batch ownership protocol
// (internal/engine/batch.go): a *batch acquired from newBatch must be handed
// back — released or transferred to another owner — on every path. The
// analyzer checks three rules:
//
//  1. owned fields: a struct field assigned from newBatch() (directly or in
//     a composite literal) makes the struct an owner; it must have a close
//     method that releases that field (f.release() or passing it to a call).
//     Fields assigned only from other sources — borrowed batches on loan
//     from a child operator — are exempt.
//  2. local leases: a function-local variable bound to newBatch() must be
//     disposed somewhere in the function: released, passed to a
//     call, sent on a channel, returned, or stored into a field/variable
//     (ownership transfer). A lease with no disposal use has leaked.
//  3. close propagation: a struct with a close method and operator-typed
//     fields (named interface types whose method set includes nextBatch)
//     must reference each such field in close, so a parent's close reaches
//     the batches its children own.
var Batchlease = &Analyzer{
	Name: "batchlease",
	Doc: "pooled batches must be released on every path: owning structs " +
		"release in close, local leases are disposed or transferred, close " +
		"propagates to child operators",
	Run: runBatchlease,
}

func runBatchlease(pass *Pass) error {
	if pass.Pkg.Name() != "engine" {
		return nil
	}
	if pass.Pkg.Scope().Lookup("batch") == nil {
		return nil // no batch protocol in this package
	}

	structs := localStructs(pass)
	owned := map[*types.Named]map[string]token.Pos{} // struct -> field -> first acquire
	for _, f := range pass.Files {
		collectOwnedFields(pass, f, structs, owned)
	}
	closers := closeMethods(pass)

	// Rule 1: every owned field is released by its struct's close.
	for named, fields := range owned {
		cm := closers[named]
		for field, pos := range fields {
			if cm == nil {
				pass.Reportf(pos, "%s.%s is assigned a pooled batch but %s has no "+
					"close method to release it", named.Obj().Name(), field, named.Obj().Name())
				continue
			}
			if !releasesField(pass, cm, field) {
				pass.Reportf(pos, "%s.%s is assigned a pooled batch but close does "+
					"not release it (call %s.release() or return it to the pool)",
					named.Obj().Name(), field, field)
			}
		}
	}

	// Rule 2: local leases must be disposed or transferred.
	for _, f := range pass.Files {
		funcBodies(f, func(_ string, fd *ast.FuncDecl) {
			checkLocalLeases(pass, fd.Body)
		})
	}

	// Rule 3: close must propagate to operator-typed fields.
	for named, cm := range closers {
		st := structs[named]
		if st == nil {
			continue
		}
		for _, fl := range st.Fields.List {
			if !isOperatorField(pass, fl.Type) {
				continue
			}
			for _, name := range fl.Names {
				if !mentionsField(cm, name.Name) {
					pass.Reportf(name.Pos(), "%s.close does not propagate to operator "+
						"field %s; its batches leak when the parent closes",
						named.Obj().Name(), name.Name)
				}
			}
		}
	}
	return nil
}

// localStructs maps this package's named struct types to their syntax.
func localStructs(pass *Pass) map[*types.Named]*ast.StructType {
	out := map[*types.Named]*ast.StructType{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				if obj, ok := pass.TypesInfo.Defs[ts.Name]; ok {
					if n, ok := obj.Type().(*types.Named); ok {
						out[n] = st
					}
				}
			}
		}
	}
	return out
}

// isAcquire reports whether e is a newBatch(...) call.
func isAcquire(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "newBatch"
}

// collectOwnedFields records struct fields assigned from an acquire
// expression anywhere in the file: x.F = newBatch(w) and T{F: newBatch(w)}
// composite literals.
func collectOwnedFields(pass *Pass, f *ast.File, structs map[*types.Named]*ast.StructType, owned map[*types.Named]map[string]token.Pos) {
	record := func(n *types.Named, field string, pos token.Pos) {
		if structs[n] == nil {
			return
		}
		m := owned[n]
		if m == nil {
			m = map[string]token.Pos{}
			owned[n] = m
		}
		if _, ok := m[field]; !ok {
			m[field] = pos
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || !isAcquire(n.Rhs[i]) {
					continue
				}
				if named := namedOf(pass.TypesInfo.Types[sel.X].Type); named != nil {
					record(named, sel.Sel.Name, sel.Pos())
				}
			}
		case *ast.CompositeLit:
			named := namedOf(pass.TypesInfo.Types[n].Type)
			if named == nil {
				return true
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !isAcquire(kv.Value) {
					continue
				}
				record(named, key.Name, kv.Pos())
			}
		}
		return true
	})
}

// closeMethods maps local named types to their close method declaration.
func closeMethods(pass *Pass) map[*types.Named]*ast.FuncDecl {
	out := map[*types.Named]*ast.FuncDecl{}
	for _, f := range pass.Files {
		funcBodies(f, func(name string, fd *ast.FuncDecl) {
			if name != "close" && name != "Close" {
				return
			}
			if n := recvNamed(pass.TypesInfo, fd); n != nil {
				out[n] = fd
			}
		})
	}
	return out
}

// releasesField reports whether the close method hands field back: calls
// recv.field.release(), or passes recv.field to any call.
func releasesField(pass *Pass, cm *ast.FuncDecl, field string) bool {
	found := false
	ast.Inspect(cm.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if recv, ok := methodCall(call, "release"); ok && selectsField(recv, field) {
			found = true
			return false
		}
		for _, arg := range call.Args {
			if selectsField(arg, field) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// selectsField reports whether e is a selector ending in .field.
func selectsField(e ast.Expr, field string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == field
}

// checkLocalLeases flags function-local batch leases with no disposal use.
// The whole declared function — including its function literals, which share
// the variables — counts as the scope.
func checkLocalLeases(pass *Pass, body *ast.BlockStmt) {
	// acquire sites: object -> position of the binding
	leases := map[types.Object]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" || !isAcquire(as.Rhs[i]) {
				continue
			}
			var obj types.Object
			if as.Tok == token.DEFINE {
				obj = pass.TypesInfo.Defs[id]
			} else {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				if _, seen := leases[obj]; !seen {
					leases[obj] = id.Pos()
				}
			}
		}
		return true
	})
	if len(leases) == 0 {
		return
	}
	disposed := map[types.Object]bool{}
	// markDirect records a disposal only when the expression IS the leased
	// variable (modulo parens/&): keep(b) transfers, b.n does not.
	markDirect := func(e ast.Expr) {
		for {
			switch u := e.(type) {
			case *ast.ParenExpr:
				e = u.X
				continue
			case *ast.UnaryExpr:
				e = u.X
				continue
			}
			break
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				if _, isLease := leases[obj]; isLease {
					disposed[obj] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, ok := methodCall(n, "release"); ok {
				markDirect(recv)
			}
			for _, arg := range n.Args {
				markDirect(arg)
			}
		case *ast.SendStmt:
			markDirect(n.Value)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				markDirect(r)
			}
		case *ast.AssignStmt:
			// Ownership transfer: the lease stored into a field or another
			// variable; the new binding is the owner.
			for _, rhs := range n.Rhs {
				markDirect(rhs)
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					markDirect(kv.Value)
				} else {
					markDirect(el)
				}
			}
		}
		return true
	})
	for obj, pos := range leases {
		if !disposed[obj] {
			pass.Reportf(pos, "batch %s is leased from the pool but never released, "+
				"sent, returned, or transferred; it escapes the function still live", obj.Name())
		}
	}
}

// isOperatorField reports whether the field type (possibly slice of) is a
// named interface whose method set includes nextBatch — the engine's
// operator interface.
func isOperatorField(pass *Pass, typ ast.Expr) bool {
	t := pass.TypesInfo.Types[typ].Type
	if t == nil {
		return false
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		t = s.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	iface, ok := n.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "nextBatch" {
			return true
		}
	}
	return false
}

// mentionsField reports whether the close method references recv.field.
func mentionsField(cm *ast.FuncDecl, field string) bool {
	found := false
	ast.Inspect(cm.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == field {
			found = true
			return false
		}
		return true
	})
	return found
}
