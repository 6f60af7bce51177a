// Package typeutil holds the small type- and AST-inspection helpers shared
// by the divtopk-vet analyzers. The analyzers match types structurally (by
// package name + type name) rather than by full import path, so they apply
// unchanged to their minimized analysistest packages.
package typeutil

import (
	"go/ast"
	"go/types"
)

// IsNamed reports whether t (after stripping pointers and aliases) is the
// named type pkgName.typeName. Generic instantiations match their origin
// (sync/atomic.Pointer[G] matches "atomic", "Pointer").
func IsNamed(t types.Type, pkgName, typeName string) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Alias:
			t = types.Unalias(t)
			continue
		case *types.Named:
			obj := u.Obj()
			return obj != nil && obj.Name() == typeName &&
				obj.Pkg() != nil && obj.Pkg().Name() == pkgName
		default:
			return false
		}
	}
}

// CalleeName returns the bare name a call invokes: the selector's Sel for
// method/package calls, the identifier for plain calls, "" otherwise.
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// MethodCall matches call as a method invocation named method on a receiver
// of named type pkgName.typeName and returns the receiver expression.
func MethodCall(info *types.Info, call *ast.CallExpr, pkgName, typeName, method string) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	tv, ok := info.Types[sel.X]
	if !ok || !IsNamed(tv.Type, pkgName, typeName) {
		return nil, false
	}
	return sel.X, true
}

// ObjOf resolves an expression to the object of its root identifier:
// `m` and `m.cur` both resolve to m's object; anything rooted elsewhere
// (call results, index expressions) yields nil.
func ObjOf(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// FuncFor returns the innermost enclosing named function declaration name
// for a node path maintained by the caller; helper for diagnostics.
func FuncFor(decl *ast.FuncDecl) string {
	if decl == nil {
		return "package scope"
	}
	return decl.Name.Name
}
