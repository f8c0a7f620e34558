package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrWrap enforces error-propagation hygiene. An fmt.Errorf whose operands
// include an error must wrap it with %w so errors.Is/As keep working across
// layers (the archive read path relies on matching io.EOF and fs.ErrNotExist
// through wrapped chains). On the archive/serving I/O packages (store,
// source, query) it additionally flags statement-level calls that discard an
// error result outright; assigning to _ is the explicit, reviewable way to
// drop one.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc: "require %w when fmt.Errorf embeds an error; flag discarded error " +
		"results on store/source/query I/O paths",
	Run: runErrWrap,
}

// errorDiscardScopes are the import-path prefixes whose discarded errors are
// flagged: the columnar archive and the layers that serve it.
var errorDiscardScopes = []string{
	"repro/internal/store",
	"repro/internal/source",
	"repro/internal/query",
}

func inErrorDiscardScope(path string) bool {
	for _, p := range errorDiscardScopes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func runErrWrap(pass *Pass) {
	pass.Prog.EachFile(func(pkg *Package, f *ast.File) {
		discardScope := inErrorDiscardScope(scopePath(pkg.Path)) && !pass.Prog.InTestFile(f.Pos())
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorfWrap(pass, pkg.Info, n)
			case *ast.ExprStmt:
				if discardScope {
					checkDiscardedError(pass, pkg.Info, n)
				}
			}
			return true
		})
	})
}

// isPkgFunc reports whether call invokes the named package-level function.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	p, ok := pkgNameOf(info, sel.X)
	return ok && p == pkgPath
}

func checkErrorfWrap(pass *Pass, info *types.Info, call *ast.CallExpr) {
	if !isPkgFunc(info, call, "fmt", "Errorf") || len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return
	}
	fv := constVal(info, call.Args[0])
	if fv == nil || fv.Kind() != constant.String {
		return
	}
	if strings.Contains(constant.StringVal(fv), "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		t := info.TypeOf(arg)
		if t == nil || !types.Implements(t, errorIface) {
			continue
		}
		pass.Report(arg.Pos(),
			"error %s formatted without %%w; wrap it so errors.Is/As see the cause",
			types.ExprString(arg))
	}
}

// constVal returns the constant value of e, or nil.
func constVal(info *types.Info, e ast.Expr) constant.Value {
	if tv, ok := info.Types[e]; ok {
		return tv.Value
	}
	return nil
}

// checkDiscardedError flags `f()` statements whose dropped result is (or
// ends in) an error.
func checkDiscardedError(pass *Pass, info *types.Info, stmt *ast.ExprStmt) {
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return
	}
	t := info.TypeOf(call)
	if t == nil {
		return
	}
	last := t
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return
		}
		last = tup.At(tup.Len() - 1).Type()
	}
	if !types.Implements(last, errorIface) {
		return
	}
	pass.Report(stmt.Pos(),
		"error result of %s discarded; handle it or assign to _ explicitly",
		types.ExprString(call.Fun))
}
