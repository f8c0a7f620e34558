package lint

import "repro/internal/parallel"

// LintPackages loads and analyzes the module packages matched by patterns
// (resolved relative to dir) and returns all surviving diagnostics in
// position order. Each package is loaded in up to three views — the plain
// package, the package plus its in-package test files, and its external
// _test package — and the analyzers run once over the Program of them all.
//
// Packages are type-checked from a worker pool — the loader's singleflight
// cache makes the demand-driven import recursion safe and walks the import
// DAG in dependency order — and the views land in pattern-expansion order,
// so the output is deterministic regardless of scheduling.
func LintPackages(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
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
	return Run(BuildProgram(views), analyzers), nil
}
