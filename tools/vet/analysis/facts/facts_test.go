package facts

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

type testFact struct {
	Kind string
	N    int
}

func (*testFact) AFact() {}

type otherFact struct{ S string }

func (*otherFact) AFact() {}

// checkPkg type-checks src as package path and returns its *types.Package.
func checkPkg(t *testing.T, path, src string) *types.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestObjectKey(t *testing.T) {
	pkg := checkPkg(t, "example.com/g", `package g
type T struct{}
func (t *T) M() {}
func F() {}
var V int
`)
	fObj := pkg.Scope().Lookup("F")
	if got, want := ObjectKey(fObj), "example.com/g:F"; got != want {
		t.Errorf("ObjectKey(F) = %q, want %q", got, want)
	}
	tObj := pkg.Scope().Lookup("T").Type()
	m, _, _ := types.LookupFieldOrMethod(tObj, true, pkg, "M")
	if got, want := ObjectKey(m), "example.com/g:T.M"; got != want {
		t.Errorf("ObjectKey(T.M) = %q, want %q", got, want)
	}
	if got := ObjectKey(pkg.Scope().Lookup("V")); got != "" {
		t.Errorf("ObjectKey(V) = %q, want \"\" (vars cannot carry facts)", got)
	}
}

// TestPutGetAcrossTypeChecks stores a fact on one type-check's *types.Func
// and reads it back through another's — the situation of an importer, which
// sees the function through export data, not the defining package's object.
func TestPutGetAcrossTypeChecks(t *testing.T) {
	const src = `package g
func F() {}
var V int
`
	def := checkPkg(t, "example.com/g", src).Scope().Lookup("F")
	use := checkPkg(t, "example.com/g", src).Scope().Lookup("F")

	s := NewSet()
	s.PutObject("det", def, &testFact{Kind: "deterministic", N: 7})
	s.PutObject("oth", def, &otherFact{S: "x"})
	s.PutObject("det", checkPkg(t, "example.com/g", src).Scope().Lookup("V"), &testFact{})

	var got testFact
	if !s.GetObject("det", use, &got) || got.Kind != "deterministic" || got.N != 7 {
		t.Errorf("GetObject(det, F) = %+v", got)
	}
	var oth otherFact
	if !s.GetObject("oth", use, &oth) || oth.S != "x" {
		t.Errorf("GetObject(oth, F) = %+v", oth)
	}
	// Wrong analyzer name and wrong concrete type both miss.
	if s.GetObject("none", use, &got) {
		t.Error("GetObject with an analyzer that exported nothing succeeded")
	}
	if s.GetObject("det", use, &oth) {
		t.Error("GetObject into wrong concrete type succeeded")
	}
	if len(s.obj) != 1 {
		t.Errorf("set holds facts for %d objects, want 1 (vars cannot carry facts)", len(s.obj))
	}
}
