package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// FloatCompare forbids == and != on floating-point expressions. Exact
// equality on computed floats is almost always a rounding-sensitive bug;
// comparisons belong in tolerance helpers. Allowed without annotation:
// comparison against an exact constant zero (guards against division by
// zero), the x != x NaN idiom, comparisons inside functions whose name
// marks them as tolerance helpers (approx/close/within/almost/tol),
// comparisons inside sort comparator closures (tie-breaking must be exact
// or the ordering is not a strict weak order), and — in test files only —
// comparison against any constant, which is how golden expectations over
// the deterministic pipeline are written. The live/archive bit-parity test
// compares computed against computed on purpose and carries a //lint:allow
// annotation.
var FloatCompare = &Analyzer{
	Name: "floatcompare",
	Doc:  "forbid ==/!= on floating-point expressions outside tolerance helpers",
	Run:  runFloatCompare,
}

// toleranceHelperName reports whether a function name designates a
// tolerance helper, where direct comparison is the implementation.
func toleranceHelperName(name string) bool {
	n := strings.ToLower(name)
	for _, marker := range []string{"approx", "close", "within", "almost", "tol"} {
		if strings.Contains(n, marker) {
			return true
		}
	}
	return false
}

func runFloatCompare(pass *Pass) {
	pass.Prog.EachFile(func(pkg *Package, f *ast.File) {
		comparators := comparatorSpans(pkg.Info, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && toleranceHelperName(fd.Name.Name) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if ok && (be.Op == token.EQL || be.Op == token.NEQ) &&
					!inSpan(comparators, be.Pos()) {
					checkFloatCompare(pass, pkg.Info, be)
				}
				return true
			})
		}
	})
}

type span struct{ lo, hi token.Pos }

func inSpan(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.lo <= pos && pos <= s.hi {
			return true
		}
	}
	return false
}

// comparatorSpans collects the source ranges of comparator closures handed
// to sort.Slice-family and slices.Sort*Func calls. Exact comparison there
// is required for deterministic tie-breaking.
func comparatorSpans(info *types.Info, f *ast.File) []span {
	var out []span
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := pkgNameOf(info, sel.X)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		isSortCall := (pkg == "sort" && (name == "Slice" || name == "SliceStable" || name == "Search")) ||
			(pkg == "slices" && strings.Contains(name, "Func"))
		if !isSortCall {
			return true
		}
		for _, arg := range call.Args {
			if fl, ok := arg.(*ast.FuncLit); ok {
				out = append(out, span{fl.Pos(), fl.End()})
			}
		}
		return true
	})
	return out
}

func isFloatExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	bt, ok := t.Underlying().(*types.Basic)
	return ok && bt.Info()&types.IsFloat != 0
}

// constVal returns the constant value of e, or nil.
func constVal(info *types.Info, e ast.Expr) constant.Value {
	if tv, ok := info.Types[e]; ok {
		return tv.Value
	}
	return nil
}

func checkFloatCompare(pass *Pass, info *types.Info, be *ast.BinaryExpr) {
	if !isFloatExpr(info, be.X) && !isFloatExpr(info, be.Y) {
		return
	}
	xv, yv := constVal(info, be.X), constVal(info, be.Y)
	if xv != nil && yv != nil {
		return // constant-folded; no runtime rounding involved
	}
	for _, v := range []constant.Value{xv, yv} {
		if v == nil {
			continue
		}
		if (v.Kind() == constant.Int || v.Kind() == constant.Float) && constant.Sign(v) == 0 {
			return // exact zero guard
		}
		if pass.Prog.InTestFile(be.Pos()) {
			return // golden expectation against a constant
		}
	}
	if types.ExprString(be.X) == types.ExprString(be.Y) {
		return // x != x NaN check
	}
	pass.Report(be.OpPos,
		"floating-point %s comparison is rounding-sensitive; use a tolerance helper", be.Op)
}
