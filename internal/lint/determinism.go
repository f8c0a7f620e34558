package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces reproducibility: the same seed and the same
// telemetry bytes must yield bit-identical results every run (the parity
// pins, and the smoke targets that cmp archives, depend on it). The
// nondeterminism sources are a wall-clock or timer read, a draw from the
// globally-seeded math/rand stream, order-dependent accumulation across a
// map range, and a select racing several channels. They are forbidden in
// two scopes, and a site in both is reported once:
//
//   - everything reachable, over the call graph, from a function annotated
//     //lint:detroot (the simulation engine, what-if batch evaluation, the
//     archive writer, the stream operators). The diagnostic
//     lands on the construct and carries the call chain from the first root
//     that reaches it as notes, so a nondeterministic helper in any package
//     is caught the moment a root can reach it;
//   - every file of the simulation packages, tests included (parity tests
//     compare bytes, and a wall clock in a test helper would silently
//     weaken them), and the shipped files of the cmd/ binaries: one that
//     seeds from the clock or walks a map into its output breaks the
//     byte-identical-rerun contract the smoke targets compare on. Their
//     tests poll servers against real clocks, which is fine.
//
// The serving libraries (telemetry, query, serve) are exempt unless a root
// reaches them — wall-clock latency measurement and deadlines are their job.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall clocks, global math/rand, map-order accumulation and racing selects " +
		"in simulation and cmd packages and in anything reachable from a //lint:detroot function",
	Run: runDeterminism,
}

// simPackages are the packages whose outputs must be bit-reproducible.
// stream is on the list because the batch/stream parity contract holds the
// live operators bit-identical to the offline analyses; source because the
// archive it writes is byte-identical across reruns and its ranged reads are
// bit-identical for any worker count.
var simPackages = map[string]bool{
	"nodesim":   true,
	"workload":  true,
	"scheduler": true,
	"facility":  true,
	"sim":       true,
	"core":      true,
	"dsp":       true,
	"stats":     true,
	"stream":    true,
	"whatif":    true,
	"source":    true,
}

// wallClockFuncs are the time package entry points that read or depend on
// the wall clock or real timers.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTicker": true, "NewTimer": true,
}

// randConstructors are the math/rand functions that build explicitly-seeded
// generators; everything else draws from the global, non-reproducible
// stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true,
	"NewChaCha8": true, "NewZipf": true,
}

func runDeterminism(pass *Pass) {
	prog := pass.Prog
	facts := prog.ComputeFacts(func(n *FuncNode) []Fact {
		if n.Decl.Body == nil {
			return nil
		}
		return detSources(n.Pkg.Info, n.File, n.Decl.Body)
	}, nil)
	reported := pass.reportReached(facts, func(n *FuncNode) bool { return n.Detroot },
		" is the annotated root", "%s, reachable from determinism root %s")
	prog.EachFile(func(pkg *Package, f *ast.File) {
		path := scopePath(pkg.Path)
		shipped := strings.HasPrefix(path, "repro/cmd/") && !prog.InTestFile(f.Pos())
		if !simPackages[pathBase(path)] && !shipped {
			return
		}
		for _, src := range detSources(pkg.Info, f, f) {
			if !reported[src.Pos] {
				pass.Report(src.Pos, "%s", src.Msg)
			}
		}
	})
}

// detSources collects the nondeterminism sources under root (a function
// body, literals included — they are attributed to their creator — or a
// whole file), which lies in file.
func detSources(info *types.Info, file *ast.File, root ast.Node) []Fact {
	var out []Fact
	ast.Inspect(root, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.SelectorExpr:
			pkg, _ := pkgNameOf(info, node.X)
			name := node.Sel.Name
			switch pkg {
			case "time":
				if wallClockFuncs[name] {
					out = append(out, Fact{Pos: node.Pos(), Msg: "time." + name + " reads the wall clock"})
				}
			case "math/rand", "math/rand/v2":
				if _, isFunc := info.Uses[node.Sel].(*types.Func); isFunc && !randConstructors[name] {
					out = append(out, Fact{Pos: node.Pos(), Msg: "global rand." + name + " is not seed-reproducible"})
				}
			}
		case *ast.SelectStmt:
			comm := 0
			for _, c := range node.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comm++
				}
			}
			if comm >= 2 {
				out = append(out, Fact{Pos: node.Pos(), Msg: "select racing multiple channels picks a ready case at random"})
			}
		case *ast.RangeStmt:
			out = append(out, mapRangeFindings(info, file, node)...)
		}
		return true
	})
	return out
}

// mapRangeFindings flags order-dependent accumulation inside a range over
// a map: appending to an outer slice, or compound-assigning an outer float
// or string. Integer compound assignment is exact and commutative, so it
// is allowed — and so is the collect-then-sort idiom, where the appended
// slice is handed to a sort call after the loop, which is exactly how
// order-dependence is repaired.
func mapRangeFindings(info *types.Info, file *ast.File, rs *ast.RangeStmt) []Fact {
	t := info.TypeOf(rs.X)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return nil
	}
	// Variables introduced by the range clause itself get fresh values each
	// iteration; writes to them never accumulate.
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	outer := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil || loopVars[obj] {
				return false
			}
			return obj.Pos() < rs.Body.Pos() || obj.Pos() > rs.Body.End()
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			// Field, element, and pointer targets outlive the loop body.
			return true
		}
		return false
	}
	var out []Fact
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			for _, lhs := range as.Lhs {
				if !outer(lhs) {
					continue
				}
				lt := info.TypeOf(lhs)
				if lt == nil {
					continue
				}
				if bt, ok := lt.Underlying().(*types.Basic); ok &&
					bt.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0 {
					out = append(out, Fact{Pos: as.Pos(), Msg: bt.Name() +
						" accumulation across map iteration is order-dependent; iterate over sorted keys"})
				}
			}
		case token.ASSIGN:
			for i, rhs := range as.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltin(info, call.Fun, "append") {
					continue
				}
				if i < len(as.Lhs) && outer(as.Lhs[i]) && !sortedAfter(info, file, as.Lhs[i], rs.End()) {
					out = append(out, Fact{Pos: as.Pos(),
						Msg: "append across map iteration is order-dependent; sort the result or iterate over sorted keys"})
				}
			}
		}
		return true
	})
	return out
}

// sortFuncs are the sort-package entry points that impose a total order on
// their first argument.
var sortFuncs = map[string]bool{
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"Ints": true, "Strings": true, "Float64s": true,
}

// sortedAfter reports whether the accumulated expression is passed to a
// sort.* or slices.Sort* call later in the same file, which restores a
// deterministic order.
func sortedAfter(info *types.Info, file *ast.File, target ast.Expr, after token.Pos) bool {
	if file == nil {
		return false
	}
	want := types.ExprString(target)
	sorted := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= after || len(call.Args) == 0 {
			return !sorted
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return !sorted
		}
		pkg, ok := pkgNameOf(info, sel.X)
		if !ok {
			return !sorted
		}
		name := sel.Sel.Name
		if (pkg == "sort" && sortFuncs[name]) ||
			(pkg == "slices" && strings.HasPrefix(name, "Sort")) {
			if types.ExprString(ast.Unparen(call.Args[0])) == want {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
