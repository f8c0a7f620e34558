package lint_test

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// standIn copies the non-test sources of the module package at path to a
// fresh directory with one extra constant, marker, and returns the directory.
func standIn(t *testing.T, moduleDir, path, marker string) string {
	t.Helper()
	dst := t.TempDir()
	names, err := filepath.Glob(filepath.Join(realDir(moduleDir, path), "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no sources for %s: %v", path, err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	decl := []byte("package units\n\nconst " + marker + " = 1\n")
	if err := os.WriteFile(filepath.Join(dst, "marker.go"), decl, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestForksShareOnlyOutsideTheModule pins Loader.Fork's split, and runs
// under the race detector, which skips the mutation rows that lean on it:
// two forks stand different copies of one module package in under its real
// path at the same time; both loads succeed, both copies import the one
// shared *types.Package of the standard library, and neither the parent
// nor the sibling sees a fork's stand-in.
func TestForksShareOnlyOutsideTheModule(t *testing.T) {
	const path = "repro/internal/units"
	parent, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	markers := []string{"probeA", "probeB"}
	forks := []*lint.Loader{parent.Fork(), parent.Fork()}
	pkgs := make([]*lint.Package, len(forks))
	errs := make([]error, len(forks))
	var wg sync.WaitGroup
	for i, f := range forks {
		dir := standIn(t, parent.ModuleDir(), path, markers[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkgs[i], errs[i] = f.LoadDir(path, dir)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
	}

	math := func(p *lint.Package) *types.Package {
		for _, imp := range p.Pkg.Imports() {
			if imp.Path() == "math" {
				return imp
			}
		}
		t.Fatalf("%s imports no math", p.Dir)
		return nil
	}
	if math(pkgs[0]) != math(pkgs[1]) {
		t.Error("the forks type-checked math twice: the standard library must be shared")
	}

	// sees reports which markers the package at path carries in loader l.
	sees := func(l *lint.Loader) (found []string) {
		p, err := l.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range markers {
			if p.Scope().Lookup(m) != nil {
				found = append(found, m)
			}
		}
		return found
	}
	for i, f := range forks {
		if got := sees(f); len(got) != 1 || got[0] != markers[i] {
			t.Errorf("fork %d sees the stand-ins %v, want only its own %s", i, got, markers[i])
		}
	}
	if got := sees(parent); len(got) != 0 {
		t.Errorf("the parent sees the forks' stand-ins %v", got)
	}
}
