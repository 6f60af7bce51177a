package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const suppressSrc = `package p

func a() {
	//lint:allow lockhold cold startup path
	x := 1
	_ = x
}

func b() {
	//lint:allow
	y := 2
	_ = y
}

func c() {
	//lint:allow lockhold
	z := 3
	_ = z
}
`

func parse(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestSuppressionsParse(t *testing.T) {
	fset, files := parse(t)
	sups, bad := Suppressions(fset, files)
	if len(sups) != 1 {
		t.Fatalf("got %d well-formed suppressions, want 1: %+v", len(sups), sups)
	}
	s := sups[0]
	if s.Analyzer != "lockhold" || s.Reason != "cold startup path" {
		t.Errorf("parsed suppression = %+v", s)
	}
	if len(bad) != 2 {
		t.Fatalf("got %d malformed suppressions, want 2 (bare + missing reason): %+v", len(bad), bad)
	}
	for _, d := range bad {
		if !strings.Contains(d.Message, "suppression") {
			t.Errorf("malformed-suppression diagnostic %q does not mention suppression", d.Message)
		}
	}
}

func TestFilterSuppressed(t *testing.T) {
	fset, files := parse(t)
	sups, _ := Suppressions(fset, files)
	// The suppression in func a sits on line 4; it must cover diagnostics on
	// its own line and the next, for analyzer lockhold only.
	pos := func(line int) token.Pos {
		return fset.File(files[0].Pos()).LineStart(line)
	}
	diags := []Diagnostic{
		{Pos: pos(5), Message: "on suppressed line"},
		{Pos: pos(6), Message: "past the suppressed line"},
	}
	kept := FilterSuppressed(fset, sups, "lockhold", diags)
	if len(kept) != 1 || kept[0].Message != "past the suppressed line" {
		t.Errorf("lockhold filter kept %+v, want only the line-6 diagnostic", kept)
	}
	kept = FilterSuppressed(fset, sups, "curload", diags)
	if len(kept) != 2 {
		t.Errorf("curload filter kept %+v, want both diagnostics (name mismatch)", kept)
	}
}

func TestStaleSuppressions(t *testing.T) {
	fset, files := parse(t)
	sups, _ := Suppressions(fset, files)

	// Before any filtering happened, every suppression is unused → stale.
	stale := Stale(sups)
	if len(stale) != 1 {
		t.Fatalf("Stale before filtering = %d diagnostics, want 1", len(stale))
	}
	if msg := stale[0].Message; !strings.Contains(msg, "lockhold") || !strings.Contains(msg, "cold startup path") {
		t.Errorf("stale diagnostic %q should name the analyzer and quote the reason", msg)
	}

	// A suppression that actually dropped a diagnostic is not stale.
	pos := fset.File(files[0].Pos()).LineStart(5)
	FilterSuppressed(fset, sups, "lockhold", []Diagnostic{{Pos: pos, Message: "covered"}})
	if stale = Stale(sups); len(stale) != 0 {
		t.Errorf("Stale after a matching finding = %+v, want none", stale)
	}
}
