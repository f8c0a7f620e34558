// Package linttest runs analyzer golden tests over testdata packages,
// mirroring the analysistest package of golang.org/x/tools: expected
// diagnostics are declared in the source under test with trailing
//
//	// want `regexp`
//
// comments on the offending line. Run fails the test when a diagnostic
// appears on a line with no matching want comment, and when a want comment
// matches no diagnostic. A testdata package with no want comments therefore
// asserts the analyzer stays silent — that is how allowlist behavior and
// no-false-positive cases are pinned.
package linttest

import (
	"go/ast"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

// Shared returns a loader shared by every golden test in the binary, rooted
// at the module containing dir, so the standard-library dependencies of the
// fixtures are type-checked once rather than once per test.
func Shared(tb testing.TB, dir string) *lint.Loader {
	tb.Helper()
	loaderOnce.Do(func() { loader, loaderErr = lint.NewLoader(dir) })
	if loaderErr != nil {
		tb.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

// Fork returns a fork of the shared loader (Loader.Fork): it reuses the
// standard library the binary has already type-checked and checks this
// module's packages afresh, so a package stood in with LoadDir is seen by
// the fork alone.
func Fork(tb testing.TB) *lint.Loader {
	tb.Helper()
	return Shared(tb, ".").Fork()
}

// Load type-checks the package in dir under importPath with the shared
// loader (Loader.LoadDir). The import path is what the analyzers' package
// scopes see, so scoped behavior is exercised by loading the same kind of
// fixture under an in-scope and an out-of-scope path; the loader remembers
// each path, so every fixture directory needs its own.
func Load(tb testing.TB, importPath, dir string) *lint.Package {
	tb.Helper()
	pkg, err := Shared(tb, dir).LoadDir(importPath, dir)
	if err != nil {
		tb.Fatalf("load %s: %v", dir, err)
	}
	return pkg
}

// Module loads every view of the module package at importPath with the
// shared loader (Loader.LoadVariants). Fixtures addressed this way live
// under testdata (so go build skips them) but keep their real module paths,
// which lets them import each other through the loader — what exercising a
// cross-package call graph requires — and carry _test.go files.
func Module(tb testing.TB, importPath string) []*lint.Package {
	tb.Helper()
	pkgs, err := Shared(tb, ".").LoadVariants(importPath)
	if err != nil || len(pkgs) == 0 {
		tb.Fatalf("load %s: %d views, err %v", importPath, len(pkgs), err)
	}
	return pkgs
}

// wantRe matches one backquoted expectation; a line may carry several.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

// expectation is one want comment awaiting a matching diagnostic.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

// Run analyzes the program made of pkgs with one analyzer and compares the
// diagnostics against the // want comments in the program's files.
func Run(t *testing.T, a *lint.Analyzer, pkgs ...*lint.Package) {
	t.Helper()
	prog := lint.BuildProgram(pkgs)
	var wants []*expectation
	prog.EachFile(func(_ *lint.Package, f *ast.File) {
		ws, err := parseWants(prog.Fset.Position(f.Pos()).Filename)
		if err != nil {
			t.Fatalf("parse want comments: %v", err)
		}
		wants = append(wants, ws...)
	})
	for _, d := range lint.Run(prog, []*lint.Analyzer{a}) {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmet expectation on the diagnostic's line whose
// pattern matches the message, and reports whether one was found.
func claim(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.met && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.met = true
			return true
		}
	}
	return false
}

// parseWants scans one source file for want comments, in line order.
func parseWants(name string) ([]*expectation, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var out []*expectation
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			re, err := regexp.Compile(m[1])
			if err != nil {
				return nil, err
			}
			out = append(out, &expectation{file: name, line: i + 1, re: re, raw: m[1]})
		}
	}
	return out, nil
}
