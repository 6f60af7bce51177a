package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeTree materializes a file tree under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// buildTool compiles the divtopk-vet binary into a temp dir.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "divtopk-vet")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building divtopk-vet: %v\n%s", err, out)
	}
	return bin
}

// fixture is a two-package module in the shape of PR 7's one real curload
// finding (cmd/divtopkd called m.Graph() twice): b's accessor loads the
// session's snapshot, a binds the snapshot and then calls the accessor. The
// finding in a exists only if curload's LoadsCur fact for b.Session.Graph
// crosses the package boundary — a sees no cur.Load() of its own after the
// first.
var fixture = map[string]string{
	"go.mod": "module example.com/rt\n\ngo 1.24\n",
	"b/b.go": `package b

import "sync/atomic"

type Snapshot struct{ Version uint64 }

type Session struct{ cur atomic.Pointer[Snapshot] }

func (s *Session) Graph() *Snapshot { return s.cur.Load() }
`,
	"a/a.go": `package a

import "example.com/rt/b"

func Versions(s *b.Session) (uint64, uint64) {
	g := s.Graph()
	return g.Version, s.Graph().Version
}
`,
}

// TestFactsCrossPackages proves the cross-package fact edge through the
// driver's shared fact set.
func TestFactsCrossPackages(t *testing.T) {
	bin := buildTool(t)
	mod := t.TempDir()
	writeTree(t, mod, fixture)

	cmd := exec.Command(bin, "-dir", mod, "./...")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("expected findings (exit 2), got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "a.go:7:") ||
		!strings.Contains(string(out), "[curload] call to Graph in Versions re-loads the session snapshot") {
		t.Fatalf("missing cross-package curload finding in output:\n%s", out)
	}
}
