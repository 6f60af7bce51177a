// Package analysistest runs an analyzer over GOPATH-style testdata packages
// and checks its diagnostics against // want comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract:
//
//	Warm() // want `call to Warm in bad while s\.mu is locked`
//
// Each quoted string is a regexp that must match exactly one diagnostic
// reported on that line; diagnostics not claimed by any want, and wants not
// matched by any diagnostic, fail the test. //lint:allow suppressions are
// honored, so testdata can pin the suppression syntax itself.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"divtopk/tools/vet/analysis"
	"divtopk/tools/vet/analysis/facts"
)

// TestData returns the abs path of the calling test's testdata directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// loaded is one parsed+checked testdata package.
type loaded struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader resolves testdata-local imports from testdata/src and everything
// else (stdlib) through the source importer, which works offline.
type loader struct {
	srcdir string
	fset   *token.FileSet
	std    types.ImporterFrom
	pkgs   map[string]*loaded
	// order lists the loaded testdata packages in completion order —
	// dependencies before their importers — which is the order the analyzer
	// must visit them for facts to flow forward.
	order []*loaded
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.types, nil
	}
	if _, err := os.Stat(filepath.Join(l.srcdir, path)); err == nil {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *loader) load(path string) (*loaded, error) {
	dir := filepath.Join(l.srcdir, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking testdata package %s: %v", path, err)
	}
	p := &loaded{path: path, files: files, types: tpkg, info: info}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// Run applies a to each named testdata package under dir/src and verifies
// the diagnostics against the // want comments of that package's files.
//
// Facts flow the way they do in the real driver: every testdata package a
// named package (transitively) imports is analyzed first, facts-only — its
// diagnostics are discarded and its files carry no want expectations — so a
// fact produced in testdata package "g" is visible while analyzing a named
// package that imports "g".
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	l := &loader{
		srcdir: filepath.Join(dir, "src"),
		fset:   token.NewFileSet(),
		pkgs:   make(map[string]*loaded),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	factSet := facts.NewSet()
	analyzed := make(map[*loaded]bool)

	// analyze runs a over p into factSet, returning the diagnostics.
	analyze := func(p *loaded) []analysis.Diagnostic {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      l.fset,
			Files:     p.files,
			Pkg:       p.types,
			TypesInfo: p.info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			FactSet:   factSet,
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("%s: analyzer failed on %s: %v", a.Name, p.path, err)
		}
		analyzed[p] = true
		return diags
	}

	for _, path := range pkgpaths {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		// Dependencies first (l.order is completion order), facts only.
		for _, dep := range l.order {
			if dep != p && !analyzed[dep] {
				analyze(dep)
			}
		}
		diags := analyze(p)
		sups, bad := analysis.Suppressions(l.fset, p.files)
		diags = append(analysis.FilterSuppressed(l.fset, sups, a.Name, diags), bad...)
		check(t, l.fset, a.Name, p.files, diags)
	}
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantStrRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// check compares diagnostics against // want comments.
func check(t *testing.T, fset *token.FileSet, name string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantStrRE.FindAllStringSubmatch(text[i+len("// want "):], -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}

	var unexpected []string
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		claimed := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				claimed = true
				break
			}
		}
		if !claimed {
			unexpected = append(unexpected, fmt.Sprintf("%s: [%s] %s", pos, name, d.Message))
		}
	}
	sort.Strings(unexpected)
	for _, u := range unexpected {
		t.Errorf("unexpected diagnostic:\n  %s", u)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}
