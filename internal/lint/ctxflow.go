package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context discipline in the serving layer (telemetry,
// query, source, stream, and the cmd/ binaries). An HTTP handler owns a
// request context with a deadline; a call path from the handler that blocks
// without ever being handed a context cannot be cancelled when the client
// goes away, and a worker task submitted to the parallel package with a
// blocking body has the same problem. Three checks:
//
//  1. No call path from a handler may reach a blocking call (time.Sleep,
//     net.Dial, the context-free net/http helpers) without passing through
//     a function that accepts a context.Context — a callee that takes a
//     context is assumed to honor it, so propagation stops there.
//  2. A handler must not manufacture a fresh root context with
//     context.Background or context.TODO; it must derive from the request.
//  3. A function literal submitted to internal/parallel must not make a
//     blocking call unless the literal consults a context value.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "require HTTP handlers and parallel-pool tasks in the serving layer to " +
		"propagate a context/deadline to every blocking call",
	Run: runCtxFlow,
}

// inServingScope reports whether the package is part of the long-running
// serving layer: the libraries under the daemons, and every binary.
func inServingScope(path string) bool {
	switch pathBase(path) {
	case "telemetry", "query", "source", "stream":
		return true
	}
	return strings.HasPrefix(path, "repro/cmd/")
}

// blockingFuncs are external entry points that block without consulting a
// deadline. The context-aware variants (DialContext, NewRequestWithContext)
// are fine and absent from the table.
var blockingFuncs = map[string]map[string]bool{
	"time":     {"Sleep": true},
	"net":      {"Dial": true},
	"net/http": {"Get": true, "Head": true, "Post": true, "PostForm": true},
}

func isBlockingFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return blockingFuncs[fn.Pkg().Path()][fn.Name()]
}

func runCtxFlow(pass *Pass) {
	prog := pass.Prog
	facts := prog.ComputeFacts(ctxBlockDirect,
		func(_ *FuncNode, c Call) bool { return !takesContext(c.Fn) })
	served := func(n *FuncNode) bool { return n.Decl.Body != nil && inServingScope(n.Pkg.Path) }
	pass.reportReached(facts, func(n *FuncNode) bool { return served(n) && isHandlerFunc(n.Fn) },
		" handles an HTTP request", "%s on a path from handler %s; plumb the request context through")
	for _, n := range prog.Nodes {
		if !served(n) {
			continue
		}
		if isHandlerFunc(n.Fn) {
			checkFreshContext(pass, n)
		}
		checkParallelSubmissions(pass, n, facts)
	}
}

// ctxBlockDirect flags calls out of the program that block with no way to
// hand them a deadline.
func ctxBlockDirect(n *FuncNode) []Fact {
	var out []Fact
	for _, c := range n.Calls {
		if c.Callee != nil || c.Fn == nil {
			continue
		}
		if isBlockingFunc(c.Fn) {
			out = append(out, Fact{Pos: c.Pos,
				Msg: funcDisplayName(c.Fn) + " blocks without a deadline"})
		}
	}
	return out
}

// takesContext reports whether the function accepts a context.Context
// parameter (and is therefore assumed to honor its deadline).
func takesContext(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// isHandlerFunc matches the http.HandlerFunc shape:
// func(http.ResponseWriter, *http.Request).
func isHandlerFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	if params.Len() != 2 || sig.Variadic() {
		return false
	}
	if !isNamedType(params.At(0).Type(), "net/http", "ResponseWriter") {
		return false
	}
	ptr, ok := params.At(1).Type().(*types.Pointer)
	return ok && isNamedType(ptr.Elem(), "net/http", "Request")
}

func isContextType(t types.Type) bool { return isNamedType(t, "context", "Context") }

func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// checkFreshContext flags context.Background()/context.TODO() inside a
// handler: the request already carries the context the work must inherit.
func checkFreshContext(pass *Pass, n *FuncNode) {
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := pkgNameOf(info, sel.X)
		if !ok || pkg != "context" {
			return true
		}
		if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
			pass.Report(sel.Pos(),
				"handler %s creates a fresh context.%s; derive from the request context instead",
				n.Name(), sel.Sel.Name)
		}
		return true
	})
}

// checkParallelSubmissions flags function literals handed to the parallel
// package whose bodies block — directly or through a context-free call
// chain — without consulting any context value.
func checkParallelSubmissions(pass *Pass, n *FuncNode, facts *Facts) {
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		target := staticCalleeFunc(info, call)
		if target == nil || target.Pkg() == nil || target.Pkg().Path() != "repro/internal/parallel" {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			if litConsultsContext(info, lit) {
				continue
			}
			if msg := blockingInLiteral(n, lit, facts); msg != "" {
				pass.Report(lit.Pos(),
					"task passed to %s %s but never consults a context",
					funcDisplayName(target), msg)
			}
		}
		return true
	})
}

// litConsultsContext reports whether the literal takes or references a
// context.Context value.
func litConsultsContext(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if t := info.TypeOf(id); t != nil && isContextType(t) {
				found = true
			}
		}
		return !found
	})
	return found
}

// blockingInLiteral describes the first blocking path out of the literal's
// body, using the enclosing node's call edges (literal bodies are
// attributed to their creator, so the edges carry positions inside lit).
func blockingInLiteral(n *FuncNode, lit *ast.FuncLit, facts *Facts) string {
	for _, c := range n.Calls {
		if c.Pos < lit.Body.Pos() || c.Pos > lit.Body.End() {
			continue
		}
		if c.Callee == nil {
			if isBlockingFunc(c.Fn) {
				return "calls " + funcDisplayName(c.Fn) + ", which blocks without a deadline,"
			}
			continue
		}
		if facts.Holds(c.Callee) && !takesContext(c.Fn) {
			return "reaches a blocking call through " + c.CalleeName()
		}
	}
	return ""
}

// staticCalleeFunc resolves a call expression to its static target, if any
// (mirrors the static paths of the call-graph builder).
func staticCalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}
