package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the Program every analyzer runs over: each linted view of
// every analyzed package, plus — over the plain (non-test) views — a
// cross-package, CHA-style call graph (callgraph.go) and per-function fact
// summaries computed bottom-up over its SCC condensation (facts.go). The
// call graph is what turns "sim.Run was deterministic on the paths the
// parity tests exercised" into "no path reachable from sim.Run can read a
// wall clock".

// Program is the whole-program view: every analyzed package, an index of
// their source functions, and the call graph over them.
type Program struct {
	Fset *token.FileSet

	// Views lists every linted view. The plain (non-test) ones are the call
	// graph's universe; the analyzers that read syntax rather than follow
	// calls walk all of them with EachFile.
	Views []*Package

	// Funcs indexes every source function (and method) by its type-checker
	// object; identity holds across packages because all packages were
	// type-checked through one shared loader.
	Funcs map[*types.Func]*FuncNode

	// Nodes lists the same functions in deterministic order: package path,
	// then file name, then line.
	Nodes []*FuncNode

	allowed map[allowKey]bool
	bad     []Diagnostic // malformed and misplaced directives

	chaCache map[chaKey][]*FuncNode
	sccOrder [][]*FuncNode
}

// FuncNode is one source function in the call graph.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	File *ast.File
	Pkg  *Package

	// Calls lists the outgoing edges in source order, including calls made
	// inside function literals declared in the body (a closure's calls are
	// attributed to the function that creates it — the over-approximation
	// that keeps reachability sound without a dataflow analysis).
	Calls []Call

	// Detroot and Allocfree record the //lint: annotations on the
	// declaration's doc comment.
	Detroot   bool
	Allocfree bool

	index, lowlink int // Tarjan scratch
	onStack        bool
}

// Name returns the function's display name, e.g. "sim.Run" or
// "(*stream.Pipeline).Ingest".
func (n *FuncNode) Name() string { return funcDisplayName(n.Fn) }

// Call is one outgoing call edge.
type Call struct {
	Pos    token.Pos
	Callee *FuncNode   // non-nil when the callee's source is in the program
	Fn     *types.Func // the callee object, set even for externals; nil when dynamic
	// Dynamic marks a call through a plain function value; the target is
	// unknown, and propagation stops (the creating function already owns
	// any literal's body, see FuncNode.Calls).
	Dynamic bool
	// ViaIface marks an edge added by class-hierarchy analysis for an
	// interface method call: Callee is one possible concrete target.
	ViaIface bool
}

// CalleeName returns a printable name for the call target.
func (c Call) CalleeName() string {
	if c.Fn != nil {
		return funcDisplayName(c.Fn)
	}
	return "dynamic call"
}

type chaKey struct {
	iface  *types.Interface
	method string
}

// BuildProgram assembles the program over the given views, each
// type-checked with Info through one shared loader.
func BuildProgram(views []*Package) *Program {
	prog := &Program{
		Views:    views,
		Funcs:    map[*types.Func]*FuncNode{},
		chaCache: map[chaKey][]*FuncNode{},
	}
	if len(views) > 0 {
		prog.Fset = views[0].Fset
	}
	var files []*ast.File
	prog.EachFile(func(_ *Package, f *ast.File) { files = append(files, f) })
	prog.allowed, prog.bad = directives(prog.Fset, files)
	// Index every function declaration, with its annotations.
	for _, pkg := range views {
		if pkg.Test {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: obj, Decl: fd, File: f, Pkg: pkg}
				node.Detroot, node.Allocfree = funcAnnotations(fd)
				prog.Funcs[obj] = node
				prog.Nodes = append(prog.Nodes, node)
			}
		}
	}
	sort.Slice(prog.Nodes, func(i, j int) bool {
		a, b := prog.Nodes[i], prog.Nodes[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		pa, pb := prog.Fset.Position(a.Decl.Pos()), prog.Fset.Position(b.Decl.Pos())
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		return pa.Line < pb.Line
	})
	// Second pass: call edges (needs the full index for resolution).
	for _, node := range prog.Nodes {
		prog.buildCalls(node)
	}
	return prog
}

// EachFile visits every source file under lint exactly once: a package's
// own files through its plain view, its _test.go files through the test
// view that type-checks them (a test view re-checks the plain files beside
// them; those copies are skipped).
func (prog *Program) EachFile(visit func(*Package, *ast.File)) {
	for _, pkg := range prog.Views {
		for _, f := range pkg.Files {
			if pkg.Test && !prog.InTestFile(f.Pos()) {
				continue
			}
			visit(pkg, f)
		}
	}
}

// funcAnnotations reads the //lint:detroot and //lint:allocfree markers
// from a declaration's doc comment.
func funcAnnotations(fd *ast.FuncDecl) (detroot, allocfree bool) {
	if fd.Doc == nil {
		return false, false
	}
	for _, c := range fd.Doc.List {
		m := annotRe.FindStringSubmatch(strings.TrimRight(c.Text, "\r"))
		if m == nil {
			continue
		}
		switch m[1] {
		case "detroot":
			detroot = true
		case "allocfree":
			allocfree = true
		}
	}
	return detroot, allocfree
}

// funcDisplayName renders a function object compactly: pkg.Func for
// package-level functions, (recv).Method for methods.
func funcDisplayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string {
		if p == nil {
			return ""
		}
		return pathBase(p.Path())
	}
	if sig != nil && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s",
			types.TypeString(sig.Recv().Type(), qual), fn.Name())
	}
	if fn.Pkg() != nil {
		return qual(fn.Pkg()) + "." + fn.Name()
	}
	return fn.Name()
}

// InTestFile reports whether pos lies in a _test.go file.
func (prog *Program) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(prog.Fset.Position(pos).Filename, "_test.go")
}
