package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LeakCheck requires every `go` statement, tree-wide, to have a provable
// shutdown edge. A goroutine body that spins an unbounded for-loop with no
// exit (no return, break, or goto) and no cancellation signal (no context
// value, channel receive, select, or range over a channel) can never be
// shut down — and neither can a goroutine that *calls into* such a
// function. The fact "spins an unbounded loop with no exit" propagates
// bottom-up over the call graph, and the diagnostic lands on the go
// statement with the call chain to the loop as notes. Spawns of external
// functions and of function values are skipped — their bodies are out of
// reach.
var LeakCheck = &Analyzer{
	Name: "leakcheck",
	Doc: "require every go statement to have a provable shutdown edge, following " +
		"named callees through the call graph",
	Run: runLeakCheck,
}

func runLeakCheck(pass *Pass) {
	prog := pass.Prog
	facts := prog.ComputeFacts(spinDirect, nil)
	for _, n := range prog.Nodes {
		if n.Decl.Body == nil {
			continue
		}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			if g, ok := node.(*ast.GoStmt); ok {
				checkGoStmt(pass, n, g, facts)
			}
			return true
		})
	}
}

// spinDirect flags functions whose body contains an unbounded for-loop
// with no exit while the body as a whole never consults a cancellation
// source. Such a function never returns; any goroutine that reaches it is
// unstoppable.
func spinDirect(n *FuncNode) []Fact {
	if n.Decl.Body == nil {
		return nil
	}
	if consultsCancellation(n.Pkg.Info, n.Decl.Body) {
		return nil
	}
	var out []Fact
	for _, pos := range unboundedLoops(n.Decl.Body) {
		out = append(out, Fact{Pos: pos, Msg: "spins an unbounded loop with no exit or cancellation path"})
	}
	return out
}

func checkGoStmt(pass *Pass, n *FuncNode, g *ast.GoStmt, facts *Facts) {
	info := n.Pkg.Info
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		// Direct spins in the literal body.
		if !consultsCancellation(info, lit.Body) {
			for _, pos := range unboundedLoops(lit.Body) {
				pass.ReportChain(g.Pos(), []ChainHop{{Pos: pos, Message: "the loop with no exit"}},
					"goroutine spins an unbounded loop with no cancellation path (context, channel receive, or return)")
			}
		}
		// Calls out of the literal into spinning functions. The enclosing
		// node's edge list carries the literal's calls (literal bodies are
		// attributed to their creator), keyed by position.
		for _, c := range n.Calls {
			if c.Pos < lit.Body.Pos() || c.Pos > lit.Body.End() {
				continue
			}
			if c.Callee != nil && facts.Holds(c.Callee) {
				reportSpin(pass, g, c.Callee, facts)
			}
		}
		return
	}
	// Named spawn: go f(...) or go x.M(...).
	fn := staticCalleeFunc(info, g.Call)
	if fn == nil {
		return
	}
	if target := pass.Prog.Funcs[fn]; target != nil && facts.Holds(target) {
		reportSpin(pass, g, target, facts)
	}
}

// reportSpin emits one diagnostic per unexitable loop reachable from the
// spawned function, at the go statement (where the shutdown edge belongs).
func reportSpin(pass *Pass, g *ast.GoStmt, target *FuncNode, facts *Facts) {
	for _, leaf := range facts.Leaves(target, target.Name()+" runs on the spawned goroutine") {
		chain := append(leaf.Chain, ChainHop{Pos: leaf.Fact.Pos,
			Message: "this loop has no exit and consults no cancellation signal"})
		pass.ReportChain(g.Pos(), chain,
			"goroutine has no shutdown edge: %s %s", target.Name(), leaf.Fact.Msg)
	}
}

// unboundedLoops returns the positions of for-loops with no condition whose
// bodies contain no exit (return, break, or goto outside nested literals).
func unboundedLoops(body ast.Node) []token.Pos {
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		fs, ok := n.(*ast.ForStmt)
		if !ok || fs.Cond != nil {
			return true
		}
		exits := false
		ast.Inspect(fs.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ReturnStmt:
				exits = true
			case *ast.BranchStmt:
				if m.Tok == token.BREAK || m.Tok == token.GOTO {
					exits = true
				}
			case *ast.FuncLit:
				return false // exits inside nested literals do not exit the loop
			}
			return !exits
		})
		if !exits {
			out = append(out, fs.Pos())
		}
		return true
	})
	return out
}

// consultsCancellation reports whether body consults anything that can end
// it from outside: a context.Context value, a channel receive, a select
// statement, or ranging over a channel.
func consultsCancellation(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.Ident:
			if t := info.TypeOf(n); t != nil && isContextType(t) {
				found = true
			}
		}
		return !found
	})
	return found
}
