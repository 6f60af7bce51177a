// Command divtopk-vet is the multichecker binary for the divtopk analyzer
// suite: it machine-checks the engine's snapshot-load and lock discipline
// (see the analyzer packages under tools/vet for the rules and the PRs whose
// bugs motivated them).
//
// Run from the repository root; -dir resolves the patterns:
//
//	divtopk-vet ./...
//	divtopk-vet -dir /path/to/repo ./internal/...
//
// Packages are analyzed in dependency order against one shared fact set, so
// a fact-driven analyzer sees a helper's effects even when the helper lives
// in an imported package.
//
// Exit status: 0 clean, 1 tool failure, 2 findings.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"sort"
	"strings"

	"divtopk/tools/vet/analysis"
	"divtopk/tools/vet/analysis/facts"
	"divtopk/tools/vet/analysis/load"
	"divtopk/tools/vet/curload"
	"divtopk/tools/vet/lockhold"
)

// analyzers is the full suite.
var analyzers = []*analysis.Analyzer{
	curload.Analyzer,
	lockhold.Analyzer,
}

func main() {
	fs := flag.NewFlagSet("divtopk-vet", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory to resolve package patterns in")
	list := fs.Bool("list", false, "list the analyzers and exit")
	sum := fs.Bool("summary", false, "print per-analyzer finding/suppression counts after the run")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: divtopk-vet [-dir d] [-summary] packages...\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(1)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	args := fs.Args()
	if len(args) == 0 {
		fs.Usage()
		os.Exit(1)
	}

	pkgs, err := load.Packages(*dir, args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "divtopk-vet: %v\n", err)
		os.Exit(1)
	}
	// One fact set for the whole run: load.Packages returns targets in
	// dependency order (go list -deps emits dependencies first), so facts
	// a package exports are in the set before its importers are analyzed.
	factSet := facts.NewSet()
	stats := summary{}
	exit := 0
	for _, p := range pkgs {
		diags := runSuite(&analysis.Pass{
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			FactSet:   factSet,
		}, stats)
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", p.Fset.Position(d.pos), d.name, d.msg)
			exit = 2
		}
	}
	if *sum {
		stats.print(os.Stderr)
	}
	os.Exit(exit)
}

// diagRecord is one finding tagged with its analyzer.
type diagRecord struct {
	pos  token.Pos
	name string
	msg  string
}

// summary aggregates per-analyzer outcome counts across packages: findings
// that survived suppression, findings a //lint:allow absorbed, and stale
// suppressions naming the analyzer.
type summary map[string]*outcome

type outcome struct {
	findings, suppressed, stale int
}

func (s summary) row(name string) *outcome {
	o := s[name]
	if o == nil {
		o = &outcome{}
		s[name] = o
	}
	return o
}

func (s summary) print(w *os.File) {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "divtopk-vet summary: %-12s %8s %10s %6s\n", "analyzer", "findings", "suppressed", "stale")
	for _, n := range names {
		o := s[n]
		fmt.Fprintf(w, "                     %-12s %8d %10d %6d\n", n, o.findings, o.suppressed, o.stale)
	}
}

// runSuite applies every analyzer to one package pass skeleton, honoring
// //lint:allow suppressions and surfacing malformed ones, and returns the
// findings in stable position order, including lintstale findings for
// suppressions no analyzer used. Test files are exempt: the invariants
// guard production code, and tests deliberately drive the raw primitives
// (repeated snapshot loads, work under a held lock) to exercise them.
func runSuite(base *analysis.Pass, stats summary) []diagRecord {
	var files []*ast.File
	for _, f := range base.Files {
		if strings.HasSuffix(base.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	base.Files = files

	var out []diagRecord
	sups, bad := analysis.Suppressions(base.Fset, base.Files)
	for _, b := range bad {
		out = append(out, diagRecord{pos: b.Pos, name: "lintallow", msg: b.Message})
		stats.row("lintallow").findings++
	}
	for _, a := range analyzers {
		var diags []analysis.Diagnostic
		pass := *base
		pass.Analyzer = a
		pass.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
		if _, err := a.Run(&pass); err != nil {
			out = append(out, diagRecord{name: a.Name, msg: fmt.Sprintf("analyzer failed: %v", err)})
			continue
		}
		kept := analysis.FilterSuppressed(base.Fset, sups, a.Name, diags)
		row := stats.row(a.Name)
		row.findings += len(kept)
		row.suppressed += len(diags) - len(kept)
		for _, d := range kept {
			out = append(out, diagRecord{pos: d.Pos, name: a.Name, msg: d.Message})
		}
	}
	// The lintstale pseudo-analyzer: a suppression no analyzer used this
	// run excuses nothing and must be deleted with the code change that
	// obsoleted it.
	for _, d := range analysis.Stale(sups) {
		out = append(out, diagRecord{pos: d.Pos, name: "lintstale", msg: d.Message})
	}
	for _, s := range sups {
		if !s.Used {
			stats.row(s.Analyzer).stale++
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}
