package lint

import "repro/internal/parallel"

// LintPackages loads the module packages matched by patterns (resolved
// relative to dir) through LoadPackages and returns all surviving
// diagnostics of the analyzers, run once over the Program of every view, in
// position order.
func LintPackages(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	views, err := LoadPackages(dir, patterns)
	if err != nil {
		return nil, err
	}
	return Run(BuildProgram(views), analyzers), nil
}

// LoadPackages loads the module packages matched by patterns (resolved
// relative to dir; none means "./...") on one loader, each in up to three
// views — the plain package, the package plus its in-package test files,
// and its external _test package.
//
// Packages are type-checked from a worker pool — the loader's singleflight
// cache makes the demand-driven import recursion safe and walks the import
// DAG in dependency order — and the views land in pattern-expansion order,
// so the output is deterministic regardless of scheduling.
func LoadPackages(dir string, patterns []string) ([]*Package, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := loader.Expand(dir, patterns)
	if err != nil {
		return nil, err
	}
	type result struct {
		views []*Package
		err   error
	}
	results := make([]result, len(paths))
	parallel.ForEach(len(paths), parallel.DefaultWorkers(), func(i int) {
		results[i].views, results[i].err = loader.LoadVariants(paths[i])
	})
	var views []*Package
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		views = append(views, r.views...)
	}
	return views, nil
}
