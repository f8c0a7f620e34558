package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// TestListAnalyzers pins the suite: exactly these six, in this order.
func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -list = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := "determinism unitsafety errwrap allocfree ctxflow leakcheck"
	if strings.Join(got, " ") != want {
		t.Errorf("-list names:\n got %s\nwant %s", strings.Join(got, " "), want)
	}
}

// TestFlagsAreAnalyzersAndList pins the CLI surface: the output is text and
// the gate's only green state is zero findings, so the JSON, SARIF and
// baseline flags are gone and must be refused as unknown.
func TestFlagsAreAnalyzersAndList(t *testing.T) {
	for _, flag := range []string{"-json", "-sarif", "-baseline=x", "-write-baseline"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{flag}, &stdout, &stderr); code != 2 {
			t.Errorf("run %s = %d, want 2 (usage error)", flag, code)
		}
	}
}

func TestUnknownAnalyzerFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run -analyzers nope = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing explanation: %s", stderr.String())
	}
}

// module is the whole module, loaded once for the tests that read all of
// it: every view of every package, as `make lint` loads them.
var module struct {
	once  sync.Once
	dir   string
	views []*lint.Package
	err   error
}

func loadModule(t *testing.T) (dir string, views []*lint.Package) {
	t.Helper()
	module.once.Do(func() {
		loader, err := lint.NewLoader(".")
		if err != nil {
			module.err = err
			return
		}
		module.dir = loader.ModuleDir()
		module.views, module.err = lint.LoadPackages(module.dir, nil)
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.dir, module.views
}

// TestRepoIsLintClean is the merge gate in test form: the whole module must
// be violation-free under the full suite, matching what `make lint` runs.
func TestRepoIsLintClean(t *testing.T) {
	_, views := loadModule(t)
	for _, d := range lint.Run(lint.BuildProgram(views), lint.All()) {
		t.Errorf("%s", d)
	}
}

// keptUncalled lists the exported functions and methods of the guarded
// packages that stay with no caller outside tests, each with the reason it
// stays.
var keptUncalled = map[string]string{
	// The oracle of a named test.
	"stats.StudentTCDF":            oracle + "TestStudentTTwoSidedP",
	"tsagg.Coarsen":                oracle + "the one window rule: query.TestRangeDownsampleMatchesCoarsen and tsagg.TestCoarsenIsAPerWindowRelation",
	"core.EarlyWarning":            oracle + "TestOperatorsMatchReferences",
	"nodesim.NewState":             oracle + "TestFleetMatchesStateBitwise",
	"(*nodesim.State).Step":        oracle + "TestFleetMatchesStateBitwise",
	"(*nodesim.State).CPUTemp":     oracle + "TestFleetMatchesStateBitwise",
	"(*nodesim.State).GPUCoreTemp": oracle + "TestFleetMatchesStateBitwise",
	"(*nodesim.State).GPUMemTemp":  oracle + "TestFleetMatchesStateBitwise",
	"dsp.IFFT":                     oracle + "TestFFTRoundTrip",

	// A test convenience.
	"store.Read":                convenience + "one table from a seekable partition, no dataset",
	"(*store.Dataset).WriteDay": convenience + "a test fixture's day at the default codec",
	"trace.BuiltinSample":       convenience + "the checked-in sample trace",
	"(*lint.Loader).ModuleDir":  convenience + "the module root the reprolint tests load from",

	// Kept with the telemetry metric catalogue when its unused fan-in
	// model was deleted.
	"telemetry.GPUPowerMetric":   metric,
	"telemetry.GPUMemTempMetric": metric,
	"telemetry.CPUPowerMetric":   metric,
	"telemetry.CPUTempMetric":    metric,
	"telemetry.IngestRate":       "the paper's ingest-rate arithmetic (460k metrics/s at Summit)",
}

const (
	oracle      = "the oracle of "
	convenience = "a test convenience: "
	metric      = "a per-slot index into the telemetry metric catalogue"
)

// TestExportedFunctionsHaveCallers is the earn-or-delete guard: every
// exported package-level function and every exported method of the guarded
// packages — the root package and internal/... — is referenced by a
// non-test file of the module (cmd/, bench/, examples/ and the root package
// included) outside its own body, or is listed in keptUncalled with the
// reason it stays. A root function that only forwards to internal/...
// therefore needs a caller of its own. A method also counts as called when
// its receiver, as a value or a pointer, implements an interface that
// declares it: its callers may hold the interface.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	dir, views := loadModule(t)
	type decl struct {
		pos, end token.Pos
		used     bool
	}
	decls := map[*types.Func]*decl{}
	var order []*types.Func
	for _, v := range views {
		if v.Test || !guarded(v.Path) {
			continue
		}
		for _, f := range v.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := v.Info.Defs[fd.Name].(*types.Func)
				decls[fn] = &decl{pos: fd.Pos(), end: fd.End()}
				order = append(order, fn)
			}
		}
	}
	for _, v := range views {
		if v.Test {
			continue
		}
		for id, obj := range v.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if d := decls[fn.Origin()]; d != nil && (id.Pos() < d.pos || id.Pos() >= d.end) {
				d.used = true
			}
		}
	}
	ifaces := interfacesByMethod(views)
	fset := views[0].Fset
	seen := map[string]bool{}
	for _, fn := range order {
		name := funcName(fn)
		seen[name] = true
		if decls[fn].used || implementsDeclarer(fn, ifaces[fn.Name()]) {
			if _, kept := keptUncalled[name]; kept {
				t.Errorf("%s is listed as kept without a caller, but has one: drop it from keptUncalled", name)
			}
			continue
		}
		if _, kept := keptUncalled[name]; !kept {
			t.Errorf("%s: %s has no caller outside tests: delete it, or list it in keptUncalled with its reason",
				where(dir, fset.Position(fn.Pos())), name)
		}
	}
	for name := range keptUncalled {
		if !seen[name] {
			t.Errorf("keptUncalled lists %s, which is not an exported function or method of a guarded package", name)
		}
	}
}

// guarded reports whether the earn-or-delete guards cover the package at
// pkgPath: the root package and internal/..., the test-helper packages
// (which exist to be called from tests) excepted.
func guarded(pkgPath string) bool {
	rest, ok := strings.CutPrefix(pkgPath, "repro/internal/")
	return pkgPath == "repro" || ok && !testHelperPackages[path.Base(rest)]
}

// where is pos as file:line, the file relative to the module root dir.
func where(dir string, pos token.Position) string {
	rel, err := filepath.Rel(dir, pos.Filename)
	if err != nil {
		rel = pos.Filename
	}
	return fmt.Sprintf("%s:%d", rel, pos.Line)
}

// funcName names fn as keptUncalled does: "pkg.F" for a function,
// "(*pkg.T).M" or "(pkg.T).M" for a method.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return "(" + types.TypeString(recv.Type(), (*types.Package).Name) + ")." + fn.Name()
}

// interfacesByMethod indexes, by method name, every interface a method of
// the module may be satisfying: the universe error, the package-level
// interfaces of every package the module imports, directly or not, and
// every interface type, named or literal, the module's non-test files use.
func interfacesByMethod(views []*lint.Package) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() || isGeneric(typ) {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	walked := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if walked[p] {
			return
		}
		walked[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, v := range views {
		if v.Test {
			continue
		}
		walk(v.Pkg)
		for _, tv := range v.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName
}

// implementsDeclarer reports whether fn's receiver type, as a value or a
// pointer, implements one of ifaces (each declares a method of fn's name).
// The pointer's method set holds the value's, so one check covers both.
func implementsDeclarer(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	if isGeneric(typ) {
		return false
	}
	for _, it := range ifaces {
		if types.Implements(types.NewPointer(typ), it) {
			return true
		}
	}
	return false
}

// isGeneric reports whether typ is a named type with type parameters, for
// which types.Implements is unspecified.
func isGeneric(typ types.Type) bool {
	named, ok := typ.(*types.Named)
	return ok && named.TypeParams().Len() > 0
}

// keptUnset lists the exported fields of the guarded packages that no
// non-test file writes, each with the reason it stays. Keys are "pkg.T.F".
var keptUnset = map[string]string{
	"query.Config.Workers":              "the worker counts 1, 2 and 7 of TestSinksMatchLegacyOracles, TestGoldenThreePathParity and TestFleetRangePreaggRefusals",
	"query.ServerConfig.Timeout":        "the short deadline of query.TestKernelContract",
	"query.ServerConfig.MaxConcurrent":  "the one slot of TestHTTPLoadShedding and query.TestKernelContract",
	"query.ServerConfig.MaxPoints":      "the small budgets of TestHTTPRangeErrors, TestHTTPBudgetRefusesBeforeMaterializing and FuzzQueryParams",
	"stream.ServeConfig.Timeout":        "the short deadline of stream.TestKernelContract",
	"stream.ServeConfig.MaxConcurrent":  "the one slot of TestHTTPShedsAtConcurrencyLimit and stream.TestKernelContract",
	"sim.Config.FailureCheckSec":        "the 60 s sweeps that give TestSeedEngineParity and TestBatchStreamParity failures in short runs",
	"sim.Config.TelemetryLossFrac":      "the paper's missing-data model; its default waits for the paper-fidelity ledger (ROADMAP item 7), since turning it on re-records goldens",
	"failures.InjectorConfig.TitanMode": "the §6 Titan-era thermal bias that failures.TestTitanFlip contrasts with Summit's; no run uses it until the paper-fidelity ledger (ROADMAP item 7) makes the flip a row",
	"tsagg.Sample.T":                    oracle + "tsagg.Coarsen, the input it takes",
	"tsagg.Sample.V":                    oracle + "tsagg.Coarsen, the input it takes",
}

// TestExportedFieldsAreSet is the earn-or-delete guard for knobs: every
// exported field of an exported struct type of a guarded package is
// written by a non-test file of the module, or is listed in keptUnset with
// the reason it stays. A write is a key of a keyed composite literal, any positional
// literal of the type, the left side of an assignment or ++/-- (after
// peeling index, star and paren expressions), the operand of &, or the
// receiver of a pointer-method call. A write inside a method of the
// field's own type does not count: a withDefaults filling its own zero
// value earns nothing. A struct type with a tagged field is exempt, since
// reflection fills it.
func TestExportedFieldsAreSet(t *testing.T) {
	dir, views := loadModule(t)
	type field struct {
		name  string
		owner *types.TypeName
		set   bool
	}
	fields := map[*types.Var]*field{}
	var order []*types.Var
	for _, v := range views {
		if v.Test || !guarded(v.Path) {
			continue
		}
		scope := v.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || hasTag(st) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = &field{name: v.Pkg.Name() + "." + tn.Name() + "." + f.Name(), owner: tn}
					order = append(order, f)
				}
			}
		}
	}
	for _, v := range views {
		if v.Test {
			continue
		}
		for _, f := range v.Files {
			// methods holds each method's span and its receiver's type name,
			// so a write from inside a method of the field's own type is
			// skipped.
			type span struct {
				pos, end token.Pos
				recv     *types.TypeName
			}
			var methods []span
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					if named := receiverNamed(v.Info.Defs[fd.Name].(*types.Func)); named != nil {
						methods = append(methods, span{fd.Pos(), fd.End(), named.Obj()})
					}
				}
			}
			mark := func(fv *types.Var) {
				if fld := fields[fv.Origin()]; fld != nil {
					fld.set = true
				}
			}
			// markSelected marks the field a written operand selects, unless
			// the write sits in a method of the field's own type.
			markSelected := func(e ast.Expr) {
				sel, ok := peelLHS(e).(*ast.SelectorExpr)
				if !ok {
					return
				}
				s := v.Info.Selections[sel]
				if s == nil || s.Kind() != types.FieldVal {
					return
				}
				fv := s.Obj().(*types.Var)
				if fld := fields[fv.Origin()]; fld != nil {
					for _, m := range methods {
						if m.recv == fld.owner && sel.Pos() >= m.pos && sel.Pos() < m.end {
							return
						}
					}
				}
				mark(fv)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := v.Info.TypeOf(n).Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
						for _, e := range n.Elts {
							if fv, ok := v.Info.Uses[e.(*ast.KeyValueExpr).Key.(*ast.Ident)].(*types.Var); ok {
								mark(fv)
							}
						}
						break
					}
					for i := 0; i < st.NumFields(); i++ {
						mark(st.Field(i))
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSelected(lhs)
					}
				case *ast.IncDecStmt:
					markSelected(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSelected(n.X)
					}
				case *ast.CallExpr:
					sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
					if !ok {
						break
					}
					s := v.Info.Selections[sel]
					if s == nil || s.Kind() != types.MethodVal {
						break
					}
					if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						markSelected(sel.X)
					}
				}
				return true
			})
		}
	}
	fset := views[0].Fset
	seen := map[string]bool{}
	for _, fv := range order {
		fld := fields[fv]
		seen[fld.name] = true
		_, kept := keptUnset[fld.name]
		switch {
		case fld.set && kept:
			t.Errorf("%s is listed as kept unset, but a non-test file writes it: drop it from keptUnset", fld.name)
		case !fld.set && !kept:
			t.Errorf("%s: %s is written by no non-test file: delete it, or list it in keptUnset with its reason",
				where(dir, fset.Position(fv.Pos())), fld.name)
		}
	}
	for name := range keptUnset {
		if !seen[name] {
			t.Errorf("keptUnset lists %s, which is not an exported field of a guarded package", name)
		}
	}
}

// hasTag reports whether any field of st carries a struct tag.
func hasTag(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Tag(i) != "" {
			return true
		}
	}
	return false
}

// receiverNamed is the named type fn is a method of, through a pointer and
// a generic instantiation.
func receiverNamed(fn *types.Func) *types.Named {
	typ := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
}

// peelLHS strips the index, star and paren expressions around a written
// operand, so a[i].F, *p.F and (x.F) all reach their selector.
func peelLHS(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// keptFlags lists every flag a command under cmd/ registers, keyed
// "command.flag", with the reason it stays: a non-test file passes it
// (passedBy: the Makefile, the CI workflow, bench/ or examples/), it is a
// deployment setting (an address, a directory, an output or profile file),
// or it selects a run README.md or EXPERIMENTS.md shows (selects).
var keptFlags = map[string]string{
	"benchjson.out":    passedBy("Makefile"),
	"benchjson.label":  passedBy("Makefile"),
	"benchjson.report": passedBy("Makefile"),

	"optimize.list":     passedBy("Makefile"),
	"optimize.study":    passedBy("Makefile"),
	"optimize.scenario": passedBy("bench/whatif.go"),
	"optimize.strategy": passedBy("Makefile"),
	"optimize.workers":  passedBy("Makefile"),
	"optimize.seed":     selects("README.md", "the CEM sweep over seed 7's draw of weather and workload"),
	"optimize.out":      passedBy("Makefile"),

	"queryd.data":     passedBy("Makefile"),
	"queryd.addr":     passedBy("Makefile"),
	"queryd.nodes":    passedBy("Makefile"),
	"queryd.cache-mb": passedBy("bench/query.go"),
	"queryd.pprof":    selects("EXPERIMENTS.md", "the read path profiled under real HTTP load"),
	"queryd.q":        passedBy("Makefile"),

	"repro.nodes":    passedBy("Makefile"),
	"repro.hours":    passedBy("Makefile"),
	"repro.seed":     passedBy("Makefile"),
	"repro.start":    passedBy("Makefile"),
	"repro.out":      deployment + "the report's output file",
	"repro.figdir":   passedBy("Makefile"),
	"repro.powercap": selects("README.md", "the §8 power-aware scheduling what-if"),
	"repro.data":     passedBy("Makefile"),

	"reprolint.list":      selects("README.md", "the analyzer listing"),
	"reprolint.analyzers": selects("README.md", "one analyzer over a fixture"),

	"scenario.list":     passedBy("Makefile"),
	"scenario.describe": selects("README.md", "a scenario's resolved spec and identity"),
	"scenario.diff":     selects("README.md", "two scenarios' objective reports side by side"),

	"streamd.addr":        passedBy("Makefile"),
	"streamd.ingest":      passedBy("Makefile"),
	"streamd.nodes":       passedBy("Makefile"),
	"streamd.sim-minutes": passedBy("Makefile"),
	"streamd.q":           passedBy("Makefile"),

	"summitsim.scenario":   passedBy("Makefile"),
	"summitsim.nodes":      passedBy("Makefile"),
	"summitsim.days":       passedBy("Makefile"),
	"summitsim.seed":       passedBy("Makefile"),
	"summitsim.clusters":   passedBy("Makefile"),
	"summitsim.sites":      passedBy("Makefile"),
	"summitsim.out":        passedBy("Makefile"),
	"summitsim.nodedata":   passedBy("Makefile"),
	"summitsim.q":          passedBy("Makefile"),
	"summitsim.cpuprofile": deployment + "a CPU profile file",
	"summitsim.memprofile": deployment + "a heap profile file",
	"summitsim.trace":      deployment + "an execution trace file",
	"summitsim.fsck":       passedBy("Makefile"),
}

const (
	passedByPrefix = "passed by "
	deployment     = "a deployment setting: "
	selectsPrefix  = "selects a run "
)

// passedBy is the reason of a flag the non-test file (module-relative)
// passes.
func passedBy(file string) string { return passedByPrefix + file }

// selects is the reason of a flag that selects the run doc shows.
func selects(doc, run string) string { return selectsPrefix + doc + " shows: " + run }

// flagRegistrars are the flag package's registration functions and
// *FlagSet methods, each with the index of its name argument.
var flagRegistrars = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Float64": 0, "String": 0, "Duration": 0,
	"Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "Float64Var": 1, "StringVar": 1,
	"DurationVar": 1, "Var": 1, "TextVar": 1,
}

// TestFlagsHaveCallers is the earn-or-delete guard for the command line:
// every flag a non-test file of a cmd/ package registers is a key of
// keptFlags, and every key names a registered flag. A reason that names a
// caller file or a document holds only if that file shows the flag.
func TestFlagsHaveCallers(t *testing.T) {
	dir, views := loadModule(t)
	fset := views[0].Fset
	registered := map[string]bool{}
	for _, v := range views {
		if v.Test || !strings.HasPrefix(v.Path, "repro/cmd/") {
			continue
		}
		cmd := path.Base(v.Path)
		for _, f := range v.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calledFunc(v.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
					return true
				}
				arg, ok := flagRegistrars[fn.Name()]
				if !ok {
					return true
				}
				at := where(dir, fset.Position(call.Pos()))
				tv := v.Info.Types[call.Args[arg]]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					t.Errorf("%s: %s registers a flag whose name is not a constant string", at, cmd)
					return true
				}
				name := constant.StringVal(tv.Value)
				key := cmd + "." + name
				registered[key] = true
				reason, kept := keptFlags[key]
				if !kept {
					t.Errorf("%s: %s -%s has no caller: delete it, or list it in keptFlags with its reason", at, cmd, name)
					return true
				}
				if err := checkFlagReason(dir, name, reason); err != nil {
					t.Errorf("%s: %s -%s: %v", at, cmd, name, err)
				}
				return true
			})
		}
	}
	t.Logf("%d flags registered", len(registered))
	for key := range keptFlags {
		if !registered[key] {
			t.Errorf("keptFlags lists %s, which no command registers", key)
		}
	}
}

// calledFunc is the function or method call invokes, or nil.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// checkFlagReason checks reason, the keptFlags entry of the flag name: a
// caller file must be a non-test file of the Makefile, the CI workflow,
// bench/ or examples/, and a document README.md or EXPERIMENTS.md; either
// must contain -name.
func checkFlagReason(dir, name, reason string) error {
	var file string
	if rest, ok := strings.CutPrefix(reason, passedByPrefix); ok {
		file = rest
		caller := file == "Makefile" || file == ".github/workflows/ci.yml" ||
			strings.HasPrefix(file, "bench/") || strings.HasPrefix(file, "examples/")
		if !caller || strings.HasSuffix(file, "_test.go") {
			return fmt.Errorf("keptFlags names %s as its caller, which is not a non-test file of the Makefile, the CI workflow, bench/ or examples/", file)
		}
	} else if rest, ok := strings.CutPrefix(reason, selectsPrefix); ok {
		file, _, _ = strings.Cut(rest, " ")
		if file != "README.md" && file != "EXPERIMENTS.md" {
			return fmt.Errorf("keptFlags says it selects a run %s shows, which is neither README.md nor EXPERIMENTS.md", file)
		}
	} else if what, ok := strings.CutPrefix(reason, deployment); ok && what != "" {
		return nil
	} else {
		return fmt.Errorf("keptFlags reason %q names no caller file, no documented run and no deployment setting", reason)
	}
	raw, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`).Match(raw) {
		return fmt.Errorf("keptFlags names %s, which does not contain -%s", file, name)
	}
	return nil
}

// testHelperPackages exist to be called from tests.
var testHelperPackages = map[string]bool{"servetest": true, "linttest": true}

// TestViolationsPrintAsRelativeTextWithChains drives the one output form end
// to end over a fixture that violates leakcheck: exit status 1, one line per
// finding with its path relative to the working directory, and the call
// chain as indented notes whose paths are relative too.
func TestViolationsPrintAsRelativeTextWithChains(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(loader.ModuleDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	const fixture = "internal/lint/testdata/src/leakcheck/leak"
	if code := run([]string{"-analyzers", "leakcheck", "./" + fixture}, &stdout, &stderr); code != 1 {
		t.Fatalf("run over a violating fixture = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "3 violation(s)") {
		t.Errorf("stderr = %q, want the violation count", stderr.String())
	}
	out := stdout.String()
	findings, notes := 0, 0
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, fixture+"/leak.go:") && strings.Contains(line, ": leakcheck: goroutine "):
			findings++
		case strings.HasPrefix(line, "\t"+fixture+"/leak.go:"):
			notes++
		default:
			t.Errorf("line is neither a relative finding nor a relative note: %q", line)
		}
	}
	if findings != 3 || notes < findings {
		t.Errorf("got %d findings and %d chain notes, want 3 and at least one note each:\n%s", findings, notes, out)
	}
	if !strings.Contains(out, "leak.runForever runs on the spawned goroutine") {
		t.Errorf("output lacks the call chain to the loop:\n%s", out)
	}
}
