package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The seeded-mutation table (ROADMAP item 6's method): each row copies one
// real package of this tree to a temporary directory, plants one small
// defect in the copy, stands the copy in for the original under its real
// import path (Loader.LoadDir), runs the whole suite over it and the
// packages named beside it, and asserts which gate catches the defect —
// exactly one diagnostic, from the analyzer the row names, or none at all.
// It is what earns each analyzer its place: an analyzer no row needs has
// nothing to show for itself. The rows that replay the retired locksafety
// analyzer's fixtures — lock copies, which are `go vet`'s to catch, and the
// goroutine rule in and out of its old scope — run under that analyzer's
// two old test names at the end of the file.

// mutation plants one defect in one file of one package.
type mutation struct {
	name string
	pkg  string // import path of the mutated package
	file string // the file of it that changes
	// The first occurrence of old becomes new; an empty old appends new to
	// the file. imp, when set, is imported under the name probe.
	old, new, imp string
	with          []string // packages loaded beside the mutant: the roots that reach it
	want          string   // the analyzer that must report it, once; goVet; "" = nobody
	wantMsg       string
}

// after plants stmt as the first statement below the line opening a
// function.
func (m mutation) after(funcLine, stmt string) mutation {
	return m.replace(funcLine, funcLine+"\n\t"+stmt)
}

func (m mutation) replace(old, new string) mutation {
	m.old, m.new = old, new
	return m
}

// add appends a declaration to the file.
func (m mutation) add(decl string) mutation { return m.replace("", decl) }

const (
	goVet = "go vet" // in mutation.want: `go vet` must fail, and reprolint stay silent

	probeClock   = "_ = probe.Now()"
	probeCounter = "\ntype probeCounter struct {\n\tmu sync.Mutex\n\tn  int\n}\n"
	probeSpin    = "\nfunc probeSpin() {\n\tgo func() {\n\t\tfor {\n\t\t\tprobeStep()\n\t\t}\n\t}()\n}\n\nfunc probeStep() {}\n"
)

func mutations() []mutation {
	return []mutation{
		// A wall clock: the simulation-package sweep and two what-if roots
		// all see this site; it is one diagnostic.
		mutation{name: "clock in core.DetectEdgesThreshold", pkg: "repro/internal/core", file: "edges.go", imp: "time",
			with: []string{"repro/internal/whatif"}, want: "determinism", wantMsg: "time.Now reads the wall clock"}.
			after("func DetectEdgesThreshold(s *tsagg.Series, threshold float64) []Edge {", probeClock),
		// The online edge operator: the sweep, its own root and the live
		// plane's applyFrame root all reach it; still one diagnostic. stats
		// and tsagg are loaded so that stream's allocfree path has no
		// unknown callee.
		mutation{name: "clock in core.(*EdgeDetector).Push", pkg: "repro/internal/core", file: "edges.go", imp: "time",
			with: []string{"repro/internal/stream", "repro/internal/stats", "repro/internal/tsagg"}, want: "determinism", wantMsg: "time.Now reads the wall clock"}.
			after("func (d *EdgeDetector) Push(t int64, v float64) {", probeClock),
		mutation{name: "clock in source.WriteArchive", pkg: "repro/internal/source", file: "layout.go", imp: "time",
			want: "determinism", wantMsg: "time.Now reads the wall clock"}.
			after("func WriteArchive(dir string, src RunSource) error {", probeClock),
		// Neither store nor tsagg is on the swept list: only the archive
		// writer's roots, through the call graph, reach these two.
		mutation{name: "clock in store.WriteCodec", pkg: "repro/internal/store", file: "columnar.go", imp: "time",
			with: []string{"repro/internal/source"}, want: "determinism", wantMsg: "reachable from determinism root (*source.NodeDayWriter).Append"}.
			after("func WriteCodec(w io.Writer, t *Table, codec Codec) error {", probeClock),
		mutation{name: "clock in tsagg.NewSeries", pkg: "repro/internal/tsagg", file: "series.go", imp: "time",
			with: []string{"repro/internal/source"}, want: "determinism", wantMsg: "reachable from determinism root"}.
			after("func NewSeries(start, step int64, n int) *Series {", probeClock),
		// The serving layer times its own work: exempt, roots loaded or not.
		mutation{name: "clock in query.(*Engine).preaggRollup", pkg: "repro/internal/query", file: "preagg.go", imp: "time",
			with: []string{"repro/internal/source"}}.
			after("func (e *Engine) preaggRollup(ctx context.Context, x *store.Index, days []store.DayMeta, req RollupRequest, g grid, cells []stats.Moments, qs *QueryStats) (bool, error) {", probeClock),
		mutation{name: "seed from the clock in cmd/summitsim", pkg: "repro/cmd/summitsim", file: "main.go", imp: "time",
			want: "determinism", wantMsg: "time.Now reads the wall clock"}.
			replace("spec.Seed = o.seed", "spec.Seed = o.seed ^ uint64(probe.Now().UnixNano())"),
		mutation{name: "unsorted map-range append in core", pkg: "repro/internal/core", file: "edges.go",
			want: "determinism", wantMsg: "append across map iteration is order-dependent"}.
			add("\nfunc probeKeys(m map[string]int) []string {\n\tvar ks []string\n\tfor k := range m {\n\t\tks = append(ks, k)\n\t}\n\treturn ks\n}\n"),
		mutation{name: "%v of an error in store", pkg: "repro/internal/store", file: "dataset.go",
			want: "errwrap", wantMsg: "formatted without %w"}.
			replace(`"store: create dataset dir: %w"`, `"store: create dataset dir: %v"`),
		mutation{name: "x*1000 in core", pkg: "repro/internal/core", file: "edges.go",
			want: "unitsafety", wantMsg: "magic unit-scale constant 1000"}.
			add("\nfunc probeKW(w float64) float64 { return w * 1000 }\n"),
		mutation{name: "append in an allocfree function", pkg: "repro/internal/stats", file: "moments.go",
			want: "allocfree", wantMsg: "append may grow the backing array"}.
			after("func (m *Moments) AddSlice(xs []float64) {", "xs = append(xs, 0)"),
		mutation{name: "fresh context in a queryd handler", pkg: "repro/internal/query", file: "http.go", imp: "context",
			want: "ctxflow", wantMsg: "creates a fresh context.Background"}.
			after("func (h *handler) vars(w http.ResponseWriter, r *http.Request) {", "_ = probe.Background()"),
	}
}

// realDir is where the module keeps the package.
func realDir(moduleDir, pkg string) string {
	return filepath.Join(moduleDir, filepath.FromSlash(strings.TrimPrefix(pkg, "repro/")))
}

var packageClause = regexp.MustCompile(`(?m)^package \w+$`)

// mutate copies the package's non-test sources to a fresh directory with
// the row's defect planted, and returns the directory.
func mutate(t *testing.T, moduleDir string, m mutation) string {
	t.Helper()
	src := realDir(moduleDir, m.pkg)
	dst := t.TempDir()
	names, err := filepath.Glob(filepath.Join(src, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no sources in %s: %v", src, err)
	}
	planted := false
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if filepath.Base(name) == m.file {
			switch {
			case m.old == "":
				text += m.new
			case strings.Contains(text, m.old):
				text = strings.Replace(text, m.old, m.new, 1)
			default:
				t.Fatalf("%s no longer contains %q: re-anchor the row", name, m.old)
			}
			if m.imp != "" {
				text = packageClause.ReplaceAllString(text, "$0\n\nimport probe \""+m.imp+"\"")
			}
			planted = true
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(name)), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !planted {
		t.Fatalf("%s has no file %s", src, m.file)
	}
	return dst
}

// run plants the row's defect and asserts who reports it.
func (m mutation) run(t *testing.T) {
	// A fork of its own: the mutant must be the only package this loader
	// ever sees under m.pkg, and the standard library is checked once for
	// every row.
	loader := linttest.Fork(t)
	dir := mutate(t, loader.ModuleDir(), m)
	if m.want == goVet {
		dir = vetMutant(t, m, dir)
	}
	mutant, err := loader.LoadDir(m.pkg, dir)
	if err != nil {
		t.Fatalf("the mutant must still type-check: %v", err)
	}
	views := []*lint.Package{mutant}
	for _, path := range m.with {
		pkg, err := loader.LoadDir(path, realDir(loader.ModuleDir(), path))
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, pkg)
	}
	diags := lint.Run(lint.BuildProgram(views), lint.All())
	if m.want == "" || m.want == goVet {
		for _, d := range diags {
			t.Errorf("no reprolint analyzer should report this; got %s", d)
		}
		return
	}
	if len(diags) != 1 || diags[0].Analyzer != m.want || !strings.Contains(diags[0].Message, m.wantMsg) ||
		filepath.Dir(diags[0].Pos.Filename) != mutant.Dir {
		t.Errorf("want exactly one %s diagnostic in the mutant saying %q, got %d:", m.want, m.wantMsg, len(diags))
		for _, d := range diags {
			t.Errorf("  %s", d)
		}
	}
}

// vetMutant moves the mutant to its real place in a module of its own, so
// the go command can build it (the package may import the standard library
// only), requires `go vet` to fail there saying m.wantMsg, and returns the
// mutant's new directory.
func vetMutant(t *testing.T, m mutation, mutantDir string) string {
	t.Helper()
	mod := t.TempDir()
	dir := realDir(mod, m.pkg)
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(mutantDir, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module repro\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	vet := exec.Command("go", "vet", "./...")
	vet.Dir = mod
	vet.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	out, err := vet.CombinedOutput()
	if err == nil || !strings.Contains(string(out), m.wantMsg) {
		t.Errorf("go vet must fail on the mutant saying %q; err %v, output:\n%s", m.wantMsg, err, out)
	}
	return dir
}

func runRows(t *testing.T, rows []mutation) {
	if raceDetector {
		// The rows share one standard-library load, but each still checks
		// its module packages afresh: on two cores the package takes about
		// 53 s under the detector with them and 24 s without, and they
		// add nothing for it to find — a fork's concurrency runs in
		// TestForksShareOnlyOutsideTheModule, the loader's worker pool in
		// cmd/reprolint's TestRepoIsLintClean.
		t.Skip("seeded mutations are not run under the race detector")
	}
	for _, m := range rows {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			m.run(t)
		})
	}
}

func TestSeededMutations(t *testing.T) { runRows(t, mutations()) }

// The retired locksafety analyzer had two golden tests. Both stay, as the
// rows that replay its fixtures' four expectations against the gates that
// own those rules now.

// TestLockSafetyGolden replays testdata/src/locksafety/server.go, loaded as
// a serving-layer package: a lock passed by value and a lock copied by
// assignment are `go vet`'s (copylocks), which CI and `make check` run
// before reprolint, and reprolint says nothing about either; the goroutine
// spinning with no way out is leakcheck's.
func TestLockSafetyGolden(t *testing.T) {
	runRows(t, []mutation{
		mutation{name: "mutex passed by value", pkg: "repro/internal/parallel", file: "parallel.go",
			want: goVet, wantMsg: "probeParam passes lock by value"}.
			add(probeCounter + "\nfunc probeParam(c probeCounter) int { return c.n }\n"),
		mutation{name: "mutex copied by assignment", pkg: "repro/internal/parallel", file: "parallel.go",
			want: goVet, wantMsg: "assignment copies lock value to snapshot"}.
			add(probeCounter + "\nfunc probeCopy(c *probeCounter) int {\n\tsnapshot := *c\n\treturn snapshot.n\n}\n"),
		mutation{name: "goroutine spin in query", pkg: "repro/internal/query", file: "preagg.go",
			want: "leakcheck", wantMsg: "goroutine spins an unbounded loop with no cancellation path"}.add(probeSpin),
	})
}

// TestLockSafetyGoroutineScope replays testdata/src/locksafety_ok/core.go:
// there the same spin, loaded as a simulation package, was *silent* — the
// goroutine rule stopped at the serving layer. It has no scope any more:
// one analyzer gives internal/core the verdict it gives internal/query.
func TestLockSafetyGoroutineScope(t *testing.T) {
	runRows(t, []mutation{
		mutation{name: "goroutine spin in core", pkg: "repro/internal/core", file: "edges.go",
			want: "leakcheck", wantMsg: "goroutine spins an unbounded loop with no cancellation path"}.add(probeSpin),
	})
}
