// Package analysis is a minimal, stdlib-only subset of the
// golang.org/x/tools/go/analysis API that the divtopk-vet analyzers are
// written against. The environment building this repository is offline, so
// x/tools cannot be fetched; this package keeps the analyzers
// source-compatible with the upstream shape (Analyzer, Pass, Diagnostic) so
// porting them to the real framework is an import swap, not a rewrite.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"divtopk/tools/vet/analysis/facts"
)

// Analyzer describes one analysis: a name (also the //lint:allow key), a
// documentation string whose first line states the invariant, and the Run
// function applied once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (any, error)
}

// Pass carries one package's syntax and type information to an analyzer's
// Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// FactSet is the run's cross-package fact store, shared by every
	// analyzer and package of one driver run. Analyzers use the
	// Export/Import methods below, never the set directly.
	FactSet *facts.Set
}

// ExportObjectFact attaches fact to obj under this pass's analyzer. Facts
// survive the package boundary: an importing package's pass reads them back
// with ImportObjectFact. Only package-level funcs/methods can carry facts;
// exports on other objects are dropped.
func (p *Pass) ExportObjectFact(obj types.Object, fact facts.Fact) {
	p.FactSet.PutObject(p.Analyzer.Name, obj, fact)
}

// ImportObjectFact copies the fact attached to obj by this analyzer (in this
// package or any dependency analyzed earlier) into fact, reporting whether
// one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact facts.Fact) bool {
	return p.FactSet.GetObject(p.Analyzer.Name, obj, fact)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated. Loaders fill it during type checking.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
