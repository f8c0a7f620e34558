// Package lint implements reprolint, the repository's static-analysis
// suite. It enforces the invariants the reproduction depends on — bitwise
// determinism of the simulation pipeline, unit-safe arithmetic,
// error-wrapping hygiene on the archive I/O paths, allocation-free hot
// loops, and context/goroutine discipline in the serving layer. Lock copies
// are not its business: `go vet`'s copylocks pass, which CI runs first, owns
// that rule.
//
// The framework mirrors the golang.org/x/tools/go/analysis design (Analyzer,
// Pass, Report, analysistest-style golden tests) but is implemented on the
// standard library alone: this module is dependency-free, so the suite
// type-checks packages itself via go/parser + go/types with a recursive
// source importer (see load.go). Every analyzer sees the whole Program at
// once — each linted view for the syntactic checks, plus a cross-package
// call graph (callgraph.go) with bottom-up fact summaries (facts.go) for the
// checks that follow calls.
//
// Three source directives drive the suite:
//
//	//lint:allow <analyzer> <reason>  — an intentional exception, on the
//	                                    offending line or the line above it;
//	                                    the reason is mandatory
//	//lint:detroot                    — in a function's doc comment: no
//	                                    nondeterminism source may be
//	                                    reachable from it (determinism)
//	//lint:allocfree                  — in a function's doc comment: it must
//	                                    be transitively allocation-free
//
// Anything else spelled //lint: is itself reported as a violation.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Note is one step of supporting context attached to a diagnostic — the
// call-graph analyzers use a note per hop to print the path from an
// annotated root to the offending construct.
type Note struct {
	Pos     token.Position
	Message string
}

// Diagnostic is one reported violation, with its position resolved. Every
// diagnostic gates the build: reprolint exits non-zero on any finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Notes    []Note // optional call-chain context, root first
}

func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%d:%d: %s: %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "\n\t%s:%d: %s", n.Pos.Filename, n.Pos.Line, n.Message)
	}
	return b.String()
}

// Analyzer is one named check over the whole Program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's run over the Program.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags []Diagnostic
}

// ChainHop is one step of a reported call chain.
type ChainHop struct {
	Pos     token.Pos
	Message string
}

// Report records a violation at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.ReportChain(pos, nil, format, args...)
}

// ReportChain records a violation at pos with the call chain that reaches
// it, rendered as one note per hop starting at the root.
func (p *Pass) ReportChain(pos token.Pos, chain []ChainHop, format string, args ...any) {
	d := Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	}
	for _, h := range chain {
		d.Notes = append(d.Notes, Note{Pos: p.Prog.Fset.Position(h.Pos), Message: h.Message})
	}
	p.diags = append(p.diags, d)
}

// All returns the suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, UnitSafety, ErrWrap, AllocFree, CtxFlow, LeakCheck}
}

// ByName resolves analyzer names against the suite.
func ByName(names []string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range names {
		a := byName(n)
		if a == nil {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

func byName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// scopePath strips the external-test suffix so package scopes treat a
// _test package like the package it tests.
func scopePath(path string) string { return strings.TrimSuffix(path, "_test") }

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// pkgNameOf resolves expr to an imported package path, if expr is the
// package side of a qualified identifier (e.g. the "time" in time.Now).
func pkgNameOf(info *types.Info, expr ast.Expr) (string, bool) {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// allowRe matches //lint:allow directives. Group 1 is the analyzer name,
// group 2 the (required) reason.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z]+)(?:\s+(\S.*))?$`)

// annotRe matches the function annotations: //lint:detroot marks a
// determinism root and //lint:allocfree an allocation-free contract. A
// trailing reason is optional.
var annotRe = regexp.MustCompile(`^//lint:(detroot|allocfree)(?:\s+\S.*)?$`)

// allowKey identifies one suppressed (file, line, analyzer) site.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// directives scans the files' comments for //lint: directives. Malformed
// ones (unknown analyzer, missing reason, misspelled verb) and annotations
// outside a function's doc comment — where they would silently do nothing —
// are returned as diagnostics so they fail the build rather than quietly
// suppressing or asserting nothing. Comment text is normalized for CRLF
// sources: a trailing carriage return never leaks into a name or reason.
func directives(fset *token.FileSet, files []*ast.File) (map[allowKey]bool, []Diagnostic) {
	allowed := make(map[allowKey]bool)
	var bad []Diagnostic
	report := func(c *ast.Comment, msg string) {
		bad = append(bad, Diagnostic{Analyzer: "lint", Pos: fset.Position(c.Pos()), Message: msg})
	}
	for _, f := range files {
		docs := map[*ast.Comment]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					docs[c] = true
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimRight(c.Text, "\r")
				if !strings.HasPrefix(text, "//lint:") {
					continue
				}
				if annotRe.MatchString(text) {
					if !docs[c] {
						report(c, "annotation must be in a function's doc comment")
					}
					continue
				}
				m := allowRe.FindStringSubmatch(text)
				if m == nil || m[2] == "" {
					report(c, "malformed directive: want //lint:allow <analyzer> <reason>, //lint:detroot, or //lint:allocfree")
					continue
				}
				if byName(m[1]) == nil {
					report(c, "malformed directive: unknown analyzer "+m[1])
					continue
				}
				pos := fset.Position(c.Pos())
				allowed[allowKey{pos.Filename, pos.Line, m[1]}] = true
			}
		}
	}
	return allowed, bad
}

// Run applies the analyzers to the program and returns the surviving
// diagnostics sorted by position: a finding on a line carrying (or directly
// below) a //lint:allow for its analyzer is dropped, and the program's
// malformed or misplaced directives are reported once, whichever analyzers
// run.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	out := append([]Diagnostic(nil), prog.bad...)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Prog: prog}
		a.Run(pass)
		for _, d := range pass.diags {
			if prog.allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
				prog.allowed[allowKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}] {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
