package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// UnitSafety polices physical-unit arithmetic. Raw magic-constant scale
// factors (x*1000, x/1e6, x/3600, x/3.6e6, ...) silently encode W→kW,
// s→h, J→kWh conversions that drift out of sync; they must go through the
// named constants and conversion methods of internal/units, which is the
// one package allowed to define them. It also flags expressions that mix
// two different unit types (after float64 casts) and raw casts between
// unit types, both of which defeat the point of carrying units in the type
// system.
var UnitSafety = &Analyzer{
	Name: "unitsafety",
	Doc: "flag magic-constant unit conversions and arithmetic mixing distinct " +
		"physical unit types outside internal/units",
	Run: runUnitSafety,
}

// unitScaleFactors are the literal values that almost always mean a unit
// conversion: SI power/energy prefixes, seconds per hour, joules per kWh.
// All are exactly representable as float64, so the comparison is exact.
var unitScaleFactors = []float64{1e3, 1e6, 1e9, 3600, 3.6e6, 3.6e9}

const unitsPkgPath = "repro/internal/units"

func runUnitSafety(pass *Pass) {
	pass.Prog.EachFile(func(pkg *Package, f *ast.File) {
		if pathBase(scopePath(pkg.Path)) == "units" {
			return // the one package allowed to define the scale factors
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkMagicScale(pass, pkg.Info, n)
				checkMixedUnits(pass, pkg.Info, n)
			case *ast.CallExpr:
				checkUnitCast(pass, pkg.Info, n)
			}
			return true
		})
	})
}

// checkMagicScale flags x*1000-style literals. Named constants (including
// the sanctioned units.WattsPerKW family) never trigger it, so the fix is
// always available. Test fixtures construct raw data freely and are exempt.
func checkMagicScale(pass *Pass, info *types.Info, be *ast.BinaryExpr) {
	if be.Op != token.MUL && be.Op != token.QUO || pass.Prog.InTestFile(be.Pos()) {
		return
	}
	for _, operand := range []ast.Expr{be.X, be.Y} {
		lit, ok := ast.Unparen(operand).(*ast.BasicLit)
		if !ok {
			continue
		}
		tv, ok := info.Types[lit]
		if !ok || tv.Value == nil {
			continue
		}
		v, exact := constant.Float64Val(tv.Value)
		if !exact {
			continue
		}
		for _, scale := range unitScaleFactors {
			if v == scale {
				pass.Report(lit.Pos(),
					"magic unit-scale constant %s; use the named constants or conversion methods of internal/units", lit.Value)
				break
			}
		}
	}
}

// unitTypeOf returns the internal/units named type carried by expr: either
// directly, or through a float64(...) cast of a units-typed value (the
// idiomatic way unit values enter plain arithmetic).
func unitTypeOf(info *types.Info, expr ast.Expr) *types.Named {
	expr = ast.Unparen(expr)
	if call, ok := expr.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			if bt, ok := tv.Type.Underlying().(*types.Basic); ok && bt.Info()&types.IsFloat != 0 {
				if named := namedUnitType(info.TypeOf(call.Args[0])); named != nil {
					return named
				}
			}
		}
	}
	return namedUnitType(info.TypeOf(expr))
}

func namedUnitType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil
	}
	// Match by path suffix so golden-test stand-ins for the units package
	// are recognized too.
	p := obj.Pkg().Path()
	if p == unitsPkgPath || strings.HasSuffix(p, "/units") {
		return named
	}
	return nil
}

// checkMixedUnits flags additive arithmetic whose operands carry two
// different unit types, e.g. float64(watts) + float64(joules).
func checkMixedUnits(pass *Pass, info *types.Info, be *ast.BinaryExpr) {
	switch be.Op {
	case token.ADD, token.SUB:
	default:
		return
	}
	lt, rt := unitTypeOf(info, be.X), unitTypeOf(info, be.Y)
	if lt == nil || rt == nil || lt.Obj().Name() == rt.Obj().Name() {
		return
	}
	pass.Report(be.OpPos, "mixing units.%s and units.%s in one expression; convert explicitly first",
		lt.Obj().Name(), rt.Obj().Name())
}

// checkUnitCast flags units.T1(x) where x already carries a different unit
// type T2: a raw cast relabels the quantity without converting it. The
// conversion methods (Watts.Tons, Celsius.F, ...) are the sanctioned path.
func checkUnitCast(pass *Pass, info *types.Info, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst := namedUnitType(tv.Type)
	src := namedUnitType(info.TypeOf(call.Args[0]))
	if dst == nil || src == nil || dst.Obj().Name() == src.Obj().Name() {
		return
	}
	pass.Report(call.Pos(), "raw cast from units.%s to units.%s relabels without converting; use a conversion method",
		src.Obj().Name(), dst.Obj().Name())
}
