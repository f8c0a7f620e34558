package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("<path>_test" for external test packages)
	Dir   string
	Test  bool // a test view (in-package or external): linted, but outside the call graph
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages from source. It resolves imports
// of this module by path prefix and everything else through go/build's
// GOROOT lookup, so it works offline with no toolchain export data and no
// third-party dependencies. Cgo is disabled so the pure-Go fallbacks of
// stdlib packages are used.
//
// The loader is safe for concurrent use: each import path is type-checked
// exactly once behind a singleflight entry, so callers can preload disjoint
// packages from a worker pool and the demand-driven import recursion walks
// the import DAG in dependency order. Module-internal packages are checked
// with full types.Info and that check is the canonical *types.Package for
// both importers and analysis — one check serves both, which is what keeps
// *types.Func identity stable across packages for the call graph.
type Loader struct {
	Fset    *token.FileSet
	ctxt    build.Context
	modPath string
	modDir  string

	// module holds this loader's packages of the module, and whatever
	// LoadDir stood in; goroot holds every import that resolves outside the
	// module, and is shared with the loader's forks.
	module, goroot *entries
}

// entries holds one singleflight slot per resolved import path.
type entries struct {
	mu    sync.Mutex
	loads map[string]*loadEntry
}

func newEntries() *entries { return &entries{loads: map[string]*loadEntry{}} }

// loadEntry is the singleflight slot for one package: the first requester
// creates it and closes ready when the check completes; everyone else
// blocks on ready.
type loadEntry struct {
	ready chan struct{}
	pkg   *Package // full package (Info filled) for module paths; nil for externals
	tpkg  *types.Package
	err   error
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		Fset:    token.NewFileSet(),
		ctxt:    ctxt,
		modPath: modPath,
		modDir:  modDir,
		module:  newEntries(),
		goroot:  newEntries(),
	}, nil
}

// Fork returns a loader over the same module that shares l's file set and
// its checks of every package outside the module, but none of its module
// packages: the fork type-checks those afresh, so a package it stands in
// with LoadDir is seen by it alone, while the standard library is checked
// once for l and all its forks.
func (l *Loader) Fork() *Loader {
	f := *l
	f.module = newEntries()
	return &f
}

// ModuleDir returns the module root directory.
func (l *Loader) ModuleDir() string { return l.modDir }

// findModule walks up from dir to the enclosing go.mod and parses its
// module path.
func findModule(dir string) (modDir, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// inModule reports whether path names a package of this module, and if so
// returns its directory.
func (l *Loader) inModule(path string) (string, bool) {
	if path == l.modPath {
		return l.modDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modDir, 0)
}

// ImportFrom implements types.ImporterFrom. Module-internal paths resolve
// against the module root; all other paths resolve through go/build, which
// finds GOROOT packages (including GOROOT/src/vendor) without invoking the
// go command.
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	var dir, key string
	var files []string
	cache := l.goroot
	if mdir, ok := l.inModule(path); ok {
		bp, err := l.ctxt.ImportDir(mdir, 0)
		if err != nil {
			return nil, fmt.Errorf("lint: import %q: %w", path, err)
		}
		dir, files, key, cache = mdir, bp.GoFiles, path, l.module
	} else {
		bp, err := l.ctxt.Import(path, srcDir, 0)
		if err != nil {
			return nil, fmt.Errorf("lint: import %q: %w", path, err)
		}
		dir, files, key = bp.Dir, bp.GoFiles, bp.ImportPath
	}
	e := l.load(cache, key, dir, files, cache == l.module)
	if e.err != nil {
		return nil, e.err
	}
	return e.tpkg, nil
}

// load returns cache's singleflight entry for key, creating it (and running
// the check) on first request. Module packages are checked with full Info so
// the cached *types.Package is the same one analysis sees. Import cycles
// would deadlock here, but cycles are already illegal Go and rejected by
// the type checker on legal inputs.
func (l *Loader) load(cache *entries, key, dir string, files []string, withInfo bool) *loadEntry {
	cache.mu.Lock()
	if e, ok := cache.loads[key]; ok {
		cache.mu.Unlock()
		<-e.ready
		return e
	}
	e := &loadEntry{ready: make(chan struct{})}
	cache.loads[key] = e
	cache.mu.Unlock()
	e.pkg, e.err = l.check(key, dir, files, withInfo)
	if e.pkg != nil {
		e.tpkg = e.pkg.Pkg
		if !withInfo {
			e.pkg = nil // dependency view: only the types.Package is retained
		}
	}
	close(e.ready)
	return e
}

// check parses the named files in dir and type-checks them as one package.
// withInfo controls whether the (memory-heavy) types.Info maps are filled;
// they are only needed for packages under analysis, not dependencies.
func (l *Loader) check(path, dir string, files []string, withInfo bool) (*Package, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: package %q has no Go files", path)
	}
	asts := make([]*ast.File, 0, len(files))
	for _, name := range files {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		asts = append(asts, f)
	}
	var info *types.Info
	if withInfo {
		info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", l.ctxt.GOARCH),
	}
	pkg, err := conf.Check(path, l.Fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: asts, Pkg: pkg, Info: info}, nil
}

// importDir wraps build.ImportDir, tolerating directories that hold only
// test files (a *build.NoGoError still carries the test file lists).
func (l *Loader) importDir(dir string) (*build.Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		var noGo *build.NoGoError
		if errors.As(err, &noGo) && (len(bp.TestGoFiles) > 0 || len(bp.XTestGoFiles) > 0) {
			return bp, nil
		}
		return nil, err
	}
	return bp, nil
}

// LoadVariants loads every linted view of the module package with the given
// import path: the package itself, the package augmented with its in-package
// test files, and its external _test package. The plain view goes through
// the singleflight cache, so it is canonical — importers of the package see
// the identical *types.Package; test views are not cached.
func (l *Loader) LoadVariants(path string) ([]*Package, error) {
	dir, ok := l.inModule(path)
	if !ok {
		return nil, fmt.Errorf("lint: %q is not in module %s", path, l.modPath)
	}
	bp, err := l.importDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	var out []*Package
	if len(bp.GoFiles) > 0 {
		e := l.load(l.module, path, dir, bp.GoFiles, true)
		if e.err != nil {
			return nil, e.err
		}
		out = append(out, e.pkg)
	}
	if len(bp.TestGoFiles) > 0 {
		pkg, err := l.check(path, dir, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...), true)
		if err != nil {
			return nil, err
		}
		pkg.Test = true
		out = append(out, pkg)
	}
	if len(bp.XTestGoFiles) > 0 {
		pkg, err := l.check(path+"_test", dir, bp.XTestGoFiles, true)
		if err != nil {
			return nil, err
		}
		pkg.Test = true
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir type-checks every non-test Go file in dir as the package
// importPath, bypassing module resolution, and makes the result canonical:
// later imports of importPath through this loader — not its parent, not its
// forks — resolve to it. Golden tests use it to analyze testdata packages
// under the paths the analyzers scope to; the mutation table uses it to
// stand a mutated copy of a real package in for the original, in a fork of
// its own. A path this loader has already loaded from elsewhere is an error.
func (l *Loader) LoadDir(importPath, dir string) (*Package, error) {
	bp, err := l.importDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	e := l.load(l.module, importPath, dir, bp.GoFiles, true)
	if e.err == nil && e.pkg.Dir != dir {
		return nil, fmt.Errorf("lint: %s is already loaded from %s", importPath, e.pkg.Dir)
	}
	return e.pkg, e.err
}

// Expand resolves package patterns relative to base (a directory inside the
// module) to module import paths. Supported forms: "./...", "dir/...",
// "dir", ".". Directories named testdata, hidden directories, and
// directories without Go files are skipped.
func (l *Loader) Expand(base string, patterns []string) ([]string, error) {
	absBase, err := filepath.Abs(base)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	add := func(dir string) error {
		path, err := l.dirImportPath(dir)
		if err != nil {
			return err
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(absBase, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			dirs, err := goSourceDirs(root)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				if err := add(d); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := add(filepath.Join(absBase, filepath.FromSlash(pat))); err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func (l *Loader) dirImportPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.modDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.modDir)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// goSourceDirs walks root collecting directories that contain Go files,
// skipping testdata, hidden, and vendor directories.
func goSourceDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				out = append(out, path)
				break
			}
		}
		return nil
	})
	return out, err
}
