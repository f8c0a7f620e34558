package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocFree proves the annotated hot paths stay allocation-free: every
// function marked //lint:allocfree (the per-tick simulation step, the node
// thermal model, the workload power evaluation) must be transitively free
// of allocating constructs. The benchmark baseline asserts 0 allocs/op for
// these paths; this analyzer explains *why* before the benchmark can only
// say *that* — the diagnostic lands on the allocating construct and carries
// the call chain from the annotated function as notes.
//
// The check is conservative in both directions it can afford to be: any
// construct the compiler *may* lower to a heap allocation is flagged
// (append growth, slice/map literals and make, &composite escape, closure
// capture, interface boxing at calls, conversions and assignments, string
// concatenation, map insertion, goroutine spawn), and any call whose body
// is outside the program is flagged as unknown unless its package is on
// the arithmetic-only allowlist. Dynamic calls through function values are
// likewise flagged — their target is unknown, so their allocations are too.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "prove //lint:allocfree functions are transitively free of allocating " +
		"constructs (make/append, closures, interface boxing, string concat)",
	Run: runAllocFree,
}

func runAllocFree(pass *Pass) {
	facts := pass.Prog.ComputeFacts(allocDirect, nil)
	pass.reportReached(facts, func(n *FuncNode) bool { return n.Allocfree },
		" is marked //lint:allocfree", "%s, on a path from alloc-free function %s")
}

// allocSafePkgs are external packages whose exported functions never
// allocate: pure arithmetic over their arguments.
var allocSafePkgs = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// allocDirect collects the allocating constructs in one function's body,
// plus the call edges whose allocation behavior cannot be inspected
// (externals off the allowlist, dynamic calls).
func allocDirect(n *FuncNode) []Fact {
	if n.Decl.Body == nil {
		return nil
	}
	info := n.Pkg.Info
	var out []Fact
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			out = append(out, allocCall(info, node)...)
		case *ast.CompositeLit:
			if t := info.TypeOf(node); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					out = append(out, Fact{Pos: node.Pos(), Msg: "slice literal allocates its backing array"})
				case *types.Map:
					out = append(out, Fact{Pos: node.Pos(), Msg: "map literal allocates"})
				}
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					out = append(out, Fact{Pos: node.Pos(), Msg: "&composite literal may escape to the heap"})
				}
			}
		case *ast.FuncLit:
			out = append(out, Fact{Pos: node.Pos(), Msg: "function literal allocates a closure"})
		case *ast.GoStmt:
			out = append(out, Fact{Pos: node.Pos(), Msg: "go statement allocates a goroutine"})
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isStringType(info.TypeOf(node)) {
				out = append(out, Fact{Pos: node.Pos(), Msg: "string concatenation allocates"})
			}
		case *ast.AssignStmt:
			out = append(out, allocAssign(info, node)...)
		case *ast.ValueSpec:
			out = append(out, allocValueSpec(info, node)...)
		}
		return true
	})
	for _, c := range n.Calls {
		if c.Callee != nil {
			continue // in-program: its own facts propagate bottom-up
		}
		if c.Dynamic {
			out = append(out, Fact{Pos: c.Pos, Msg: "calls through a function value, which may allocate"})
			continue
		}
		if c.Fn == nil {
			continue
		}
		if pkg := c.Fn.Pkg(); pkg != nil && allocSafePkgs[pkg.Path()] {
			continue
		}
		out = append(out, Fact{Pos: c.Pos,
			Msg: "calls " + funcDisplayName(c.Fn) + ", whose allocation behavior is unknown"})
	}
	return out
}

// allocCall flags the allocating call forms: the make/new/append builtins,
// allocating conversions, and interface boxing of concrete arguments.
func allocCall(info *types.Info, call *ast.CallExpr) []Fact {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return allocConversion(info, call, tv.Type)
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				return []Fact{{Pos: call.Pos(), Msg: "append may grow the backing array"}}
			case "make":
				return []Fact{{Pos: call.Pos(), Msg: "make allocates"}}
			case "new":
				return []Fact{{Pos: call.Pos(), Msg: "new allocates"}}
			}
			return nil
		}
	}
	return boxedArgs(info, call)
}

// allocConversion flags conversions that copy memory or box: string to and
// from byte/rune slices, and conversions to interface types.
func allocConversion(info *types.Info, call *ast.CallExpr, target types.Type) []Fact {
	if len(call.Args) != 1 {
		return nil
	}
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return nil
	}
	if _, ok := target.Underlying().(*types.Interface); ok {
		if boxes(src) {
			return []Fact{{Pos: call.Pos(),
				Msg: "conversion of " + typeDisplay(src) + " to an interface boxes the value"}}
		}
		return nil
	}
	if (isStringType(target) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(target) && isStringType(src)) {
		return []Fact{{Pos: call.Pos(), Msg: "string conversion copies and allocates"}}
	}
	return nil
}

// boxedArgs flags concrete values passed to interface parameters — each
// such argument is boxed at the call site unless the compiler can prove it
// does not escape, which the alloc-free contract cannot rely on.
func boxedArgs(info *types.Info, call *ast.CallExpr) []Fact {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	params := sig.Params()
	np := params.Len()
	var out []Fact
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through whole; no per-element boxing
			}
			st, ok := params.At(np - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, iface := pt.Underlying().(*types.Interface); !iface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || !boxes(at) {
			continue
		}
		out = append(out, Fact{Pos: arg.Pos(),
			Msg: "passing " + typeDisplay(at) + " to an interface parameter boxes the value"})
	}
	return out
}

// allocAssign flags string compound concatenation, map insertion, and
// interface boxing on plain assignment.
func allocAssign(info *types.Info, as *ast.AssignStmt) []Fact {
	var out []Fact
	switch as.Tok {
	case token.ADD_ASSIGN:
		for _, lhs := range as.Lhs {
			if isStringType(info.TypeOf(lhs)) {
				out = append(out, Fact{Pos: as.Pos(), Msg: "string concatenation allocates"})
			}
		}
	case token.ASSIGN:
		if len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				lt, rt := info.TypeOf(lhs), info.TypeOf(as.Rhs[i])
				if lt == nil || rt == nil {
					continue
				}
				if _, iface := lt.Underlying().(*types.Interface); iface && boxes(rt) {
					out = append(out, Fact{Pos: as.Rhs[i].Pos(),
						Msg: "assigning " + typeDisplay(rt) + " to an interface boxes the value"})
				}
			}
		}
	}
	for _, lhs := range as.Lhs {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		if t := info.TypeOf(ix.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				out = append(out, Fact{Pos: lhs.Pos(), Msg: "map insertion may allocate buckets"})
			}
		}
	}
	return out
}

// allocValueSpec flags `var x Iface = concrete` boxing.
func allocValueSpec(info *types.Info, vs *ast.ValueSpec) []Fact {
	if vs.Type == nil {
		return nil
	}
	lt := info.TypeOf(vs.Type)
	if lt == nil {
		return nil
	}
	if _, iface := lt.Underlying().(*types.Interface); !iface {
		return nil
	}
	var out []Fact
	for _, v := range vs.Values {
		if rt := info.TypeOf(v); rt != nil && boxes(rt) {
			out = append(out, Fact{Pos: v.Pos(),
				Msg: "assigning " + typeDisplay(rt) + " to an interface boxes the value"})
		}
	}
	return out
}

// boxes reports whether storing a value of type t into an interface
// requires boxing: t is concrete and not the untyped nil.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, iface := t.Underlying().(*types.Interface); iface {
		return false
	}
	if b, ok := t.(*types.Basic); ok && (b.Kind() == types.UntypedNil || b.Kind() == types.Invalid) {
		return false
	}
	return true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// typeDisplay renders a type with package-basename qualifiers.
func typeDisplay(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return pathBase(p.Path()) })
}
