// Package verkey checks that every result-cache admission keys on the graph
// snapshot version.
//
// Invariant (PR 4, cache invalidation by unreachability): the serving layer
// never invalidates cached query results — instead every cache key embeds
// the snapshot version (see divtopk.queryKey), so entries cached against an
// older snapshot become unreachable after an Update and age out of the LRU.
// A cache.Cache call site whose key does not flow from a version value
// silently re-introduces stale-result serving.
//
// The check is a conservative per-function taint walk: the key argument of
// Cache.DoStatus/PutAdvanced/Get/Add must (transitively, through local
// assignments and call arguments) contain a Version() call, a version
// field/variable, or a value derived from one — the shape queryKey and every
// call site in the tree use.
package verkey

import (
	"go/ast"
	"go/types"
	"strings"

	"divtopk/tools/vet/analysis"
	"divtopk/tools/vet/internal/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "verkey",
	Doc: "flag cache admissions whose key does not flow from the graph " +
		"snapshot version (stale results become servable after updates)",
	Run: run,
}

// cacheMethods are the admission/lookup entry points of the cache package.
// PutAdvanced joined with the warm result cache: an advanced entry installed
// under an unversioned key would keep serving a pre-delta result after later
// commits exactly like a stale DoStatus admission.
var cacheMethods = map[string]bool{
	"Get":         true,
	"Add":         true,
	"DoStatus":    true,
	"PutAdvanced": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	tainted := make(map[types.Object]bool)

	exprTainted := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *ast.CallExpr:
				if typeutil.CalleeName(x) == "Version" {
					found = true
					return false
				}
			case *ast.SelectorExpr:
				if isVersionName(x.Sel.Name) {
					found = true
					return false
				}
			case *ast.Ident:
				obj := pass.TypesInfo.ObjectOf(x)
				if obj != nil && tainted[obj] {
					found = true
					return false
				}
				if v, ok := obj.(*types.Var); ok && isVersionName(v.Name()) {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}

	// Single in-order walk: statements both propagate taint and contain the
	// cache calls to check; Go evaluates an assignment's RHS before its LHS
	// becomes visible, and the walk mirrors that.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			any := false
			for _, rhs := range st.Rhs {
				if exprTainted(rhs) {
					any = true
					break
				}
			}
			if any {
				for _, lhs := range st.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
							tainted[obj] = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			any := false
			for _, v := range st.Values {
				if exprTainted(v) {
					any = true
					break
				}
			}
			if any {
				for _, id := range st.Names {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						tainted[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			if len(st.Args) == 0 {
				return true
			}
			fun, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr)
			if !ok || !cacheMethods[fun.Sel.Name] {
				return true
			}
			tv, ok := pass.TypesInfo.Types[fun.X]
			if !ok || !typeutil.IsNamed(tv.Type, "cache", "Cache") {
				return true
			}
			if !exprTainted(st.Args[0]) {
				pass.Reportf(st.Args[0].Pos(),
					"cache key in %s does not flow from the graph snapshot version: entries "+
						"cached before an Update stay servable after it — derive the key via "+
						"queryKey/Version() so stale entries become unreachable",
					typeutil.FuncFor(fd))
			}
		}
		return true
	})
}

func isVersionName(name string) bool {
	l := strings.ToLower(name)
	return l == "version" || l == "ver"
}
