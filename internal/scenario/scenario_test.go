package scenario

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/whatif"
)

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) < 6 {
		t.Fatalf("catalog holds %d scenarios, want >= 6", len(cat))
	}
	if !sort.SliceIsSorted(cat, func(i, j int) bool { return cat[i].Name < cat[j].Name }) {
		t.Error("catalog is not sorted by name")
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if seen[s.Name] {
			t.Errorf("duplicate catalog name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			t.Errorf("catalog scenario %q invalid: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("catalog scenario %q has no description", s.Name)
		}
	}
}

func TestCatalogCompiles(t *testing.T) {
	for _, s := range Catalog() {
		r, err := Compile(s, "")
		if err != nil {
			t.Errorf("compile %q: %v", s.Name, err)
			continue
		}
		if err := r.Config.Validate(); err != nil {
			t.Errorf("%q compiled config invalid: %v", s.Name, err)
		}
		if r.Hash == 0 || r.Seed == 0 {
			t.Errorf("%q identity not derived: hash %#x seed %#x", s.Name, r.Hash, r.Seed)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("heatwave-summer")
	if err != nil || s.Name != "heatwave-summer" {
		t.Fatalf("ByName: %v, %+v", err, s)
	}
	if _, err := ByName("no-such-scenario"); !errors.Is(err, ErrScenario) {
		t.Errorf("unknown name err = %v, want ErrScenario", err)
	} else if !strings.Contains(err.Error(), "heatwave-summer") {
		t.Errorf("unknown-name error should list catalog names, got %v", err)
	}
}

// TestWhatifStudiesResolve pins the cross-package contract: every what-if
// study's base scenario must exist in this catalog (whatif cannot import
// scenario, so the check lives here).
func TestWhatifStudiesResolve(t *testing.T) {
	for _, st := range whatif.Catalog() {
		if _, err := ByName(st.Scenario); err != nil {
			t.Errorf("study %q references missing scenario %q: %v", st.Name, st.Scenario, err)
		}
	}
}

// TestStudyBasesMatchHistorical pins the refactor: the three scenarios the
// what-if studies reference must compile to exactly the sim configs the
// studies embedded before the scenario layer existed, so every sweep seed
// and sweep artifact is unchanged.
func TestStudyBasesMatchHistorical(t *testing.T) {
	mk := func(hours int64, offset int64) sim.Config {
		cfg := sim.Scaled(64, hours*units.SecondsPerHour)
		cfg.StartTime += offset
		// Compile returns the validated (normalized) form; the engine
		// applies the same normalization to the raw study bases at run
		// time, so the runtime configs are identical.
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	cases := []struct {
		name string
		want sim.Config
	}{
		{"heatwave-summer", mk(12, whatif.MidJulyOffsetSec)},
		{"winter-economizer", mk(12, 0)},
		{"summer-capday", mk(24, whatif.MidJulyOffsetSec)},
	}
	for _, c := range cases {
		r, err := Resolve(c.name)
		if err != nil {
			t.Fatalf("resolve %q: %v", c.name, err)
		}
		got, err := json.Marshal(r.Config)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%q config drifted from the historical study base:\n got %s\nwant %s",
				c.name, got, want)
		}
	}
}

func TestHashSemantics(t *testing.T) {
	base := Spec{Version: Version, Name: "a", Nodes: 32, DurationSec: 3600}
	h := func(s Spec) uint64 {
		r, err := Compile(s, "")
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return r.Hash
	}
	h0 := h(base)

	// Cosmetic fields are excluded.
	cosmetic := base
	cosmetic.Name = "b"
	cosmetic.Description = "different words"
	if h(cosmetic) != h0 {
		t.Error("name/description changed the hash")
	}

	// Every semantic knob participates.
	for name, mut := range map[string]func(*Spec){
		"nodes":    func(s *Spec) { s.Nodes = 64 },
		"duration": func(s *Spec) { s.DurationSec = 7200 },
		"seed":     func(s *Spec) { s.Seed = 7 },
		"weather":  func(s *Spec) { s.Weather = WeatherSummer },
		"failures": func(s *Spec) { s.Failures.Regime = FailureOff },
		"tuning":   func(s *Spec) { s.Tuning.SupplySetpointC = 24 },
		"cap":      func(s *Spec) { s.PowerCapMW = 0.1 },
		"capsched": func(s *Spec) { s.CapSchedule = []CapStep{{AfterSec: 60, CapMW: 0.1}} },
		"workload": func(s *Spec) { s.Workload.Jobs = 33 },
	} {
		m := base
		mut(&m)
		if h(m) == h0 {
			t.Errorf("%s change did not move the hash", name)
		}
	}

	// Trace content is hashed, not just the path: same path, different
	// bytes must change the identity.
	dir := t.TempDir()
	p := filepath.Join(dir, "t.csv")
	tr := base
	tr.Workload = WorkloadSpec{Source: SourceTrace, TracePath: "t.csv"}
	write := func(body string) {
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("job_id,nodes,submit,duration\n1,2,100,600\n")
	h1 := h2(t, tr, dir)
	write("job_id,nodes,submit,duration\n1,2,100,900\n")
	if h2(t, tr, dir) == h1 {
		t.Error("trace content change did not move the hash")
	}
}

func h2(t *testing.T, s Spec, dir string) uint64 {
	t.Helper()
	r, err := Compile(s, dir)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return r.Hash
}

func TestValidateRejects(t *testing.T) {
	ok := Spec{Version: Version, Name: "x", Nodes: 8, DurationSec: 3600}
	cases := map[string]func(*Spec){
		"version":        func(s *Spec) { s.Version = 99 },
		"no name":        func(s *Spec) { s.Name = "" },
		"no nodes":       func(s *Spec) { s.Nodes = 0 },
		"many nodes":     func(s *Spec) { s.Nodes = source.MaxManifestNodes + 1 },
		"no duration":    func(s *Spec) { s.DurationSec = 0 },
		"bad weather":    func(s *Spec) { s.Weather = "monsoon" },
		"bad source":     func(s *Spec) { s.Workload.Source = "oracle" },
		"trace w/o path": func(s *Spec) { s.Workload.Source = SourceTrace },
		"path w/o trace": func(s *Spec) { s.Workload.TracePath = "x.csv" },
		"bad regime":     func(s *Spec) { s.Failures.Regime = "plague" },
		"neg offenders":  func(s *Spec) { s.Failures.Offenders = -1 },
		"many offenders": func(s *Spec) { s.Failures.Offenders = 9 },
		"neg rate":       func(s *Spec) { s.Failures.RateScale = -1 },
		"neg cap":        func(s *Spec) { s.PowerCapMW = -1 },
		"neg cap step":   func(s *Spec) { s.CapSchedule = []CapStep{{AfterSec: -1}} },
		"nan rate":       func(s *Spec) { s.Failures.RateScale = math.NaN() },
		"nan cap":        func(s *Spec) { s.PowerCapMW = math.NaN() },
		"inf cap":        func(s *Spec) { s.PowerCapMW = math.Inf(1) },
		"nan cap step":   func(s *Spec) { s.CapSchedule = []CapStep{{CapMW: math.NaN()}} },
		"many jobs":      func(s *Spec) { s.Workload.Jobs = 1001 },
		"huge mixed":     func(s *Spec) { s.Workload = WorkloadSpec{Source: SourceMixed, TracePath: "x.csv", Jobs: 100_000_000} },
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}
	for name, mut := range cases {
		s := ok
		mut(&s)
		if err := s.Validate(); !errors.Is(err, ErrScenario) {
			t.Errorf("%s: err = %v, want ErrScenario", name, err)
		}
	}
	// The job bound scales with node-time: the paper's year density a
	// hundredfold, and 1 000 jobs on any span.
	for _, c := range []struct {
		nodes    int
		duration int64
		jobs     int
		ok       bool
	}{
		{8, 3600, 1000, true}, {8, 3600, 1001, false},
		{4626, 365 * 86400, 84_000_000, true}, {4626, 365 * 86400, 84_000_001, false},
	} {
		s := ok
		s.Nodes, s.DurationSec, s.Workload.Jobs = c.nodes, c.duration, c.jobs
		err := s.Validate()
		if c.ok && err != nil || !c.ok && (!errors.Is(err, ErrScenario) || !strings.Contains(err.Error(), "workload.jobs")) {
			t.Errorf("%d jobs on %d nodes over %d s: %v", c.jobs, c.nodes, c.duration, err)
		}
	}
	// Plant tuning is checked where the compiled config validates.
	nan := ok
	nan.Tuning.SupplySetpointC = math.NaN()
	if _, err := Compile(nan, ""); !errors.Is(err, ErrScenario) || !errors.Is(err, facility.ErrTuning) {
		t.Errorf("nan setpoint: Compile err = %v, want ErrScenario wrapping ErrTuning", err)
	}
}

func TestLoadAndResolve(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{
		Version: Version, Name: "file-scn", Nodes: 16, DurationSec: 3600,
		Workload: WorkloadSpec{Source: SourceTrace, TracePath: "jobs.csv"},
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "scn.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs.csv"),
		[]byte("job_id,nodes,submit,duration\n1,2,100,600\n2,4,200,1200\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Relative trace paths resolve against the spec file's directory.
	r, err := Resolve(path)
	if err != nil {
		t.Fatalf("Resolve(%s): %v", path, err)
	}
	if r.TraceStats.Jobs != 2 || len(r.Config.Workload) != 2 {
		t.Errorf("trace not replayed: stats %+v, %d jobs", r.TraceStats, len(r.Config.Workload))
	}

	// Unknown spec fields are rejected, not ignored.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"name":"x","nodes":8,"duration_sec":60,"bogus":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); !errors.Is(err, ErrScenario) {
		t.Errorf("unknown field err = %v, want ErrScenario", err)
	}

	// A spec file is one JSON value: anything after it but space — a
	// second spec, or the identity lines scenario -describe prints — is
	// refused, naming the file.
	tail := filepath.Join(dir, "tail.json")
	for _, tc := range []struct {
		tail string
		ok   bool
	}{{"\n \t\r\n", true}, {string(raw), false}, {"\nhash 0123456789abcdef  identity 1  seed 2020\n", false}, {"}", false}} {
		if err := os.WriteFile(tail, append(raw[:len(raw):len(raw)], tc.tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(tail)
		if tc.ok != (err == nil) || err != nil && (!errors.Is(err, ErrScenario) || !strings.Contains(err.Error(), tail)) {
			t.Errorf("spec + %q: Load = %v, want ok=%v or an ErrScenario naming the file", tc.tail, err, tc.ok)
		}
	}

	// A bare name resolves through the catalog; junk does not.
	if _, err := Resolve("winter-economizer"); err != nil {
		t.Errorf("catalog resolve: %v", err)
	}
	if _, err := Resolve("no-such"); err == nil {
		t.Error("junk name resolved")
	}
}

func TestMixedWorkloadOrdering(t *testing.T) {
	r, err := Resolve("mixed-replay")
	if err != nil {
		t.Fatalf("resolve mixed-replay: %v", err)
	}
	jobs := r.Config.Workload
	if len(jobs) == 0 {
		t.Fatal("mixed workload is empty")
	}
	var traced, generated int
	for i, j := range jobs {
		if i > 0 && jobs[i-1].SubmitTime > j.SubmitTime {
			t.Fatalf("mixed workload unsorted at %d", i)
		}
		if j.ID >= 1<<20 {
			traced++
		} else {
			generated++
		}
	}
	if traced == 0 || generated == 0 {
		t.Errorf("mixed workload lacks one side: %d traced, %d generated", traced, generated)
	}
	if r.TraceStats.Jobs != traced {
		t.Errorf("stats say %d trace jobs, workload holds %d", r.TraceStats.Jobs, traced)
	}
}

func TestFailureRegimes(t *testing.T) {
	base := Spec{Version: Version, Name: "x", Nodes: 32, DurationSec: 3600}

	off := base
	off.Failures.Regime = FailureOff
	r, err := Compile(off, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Config.FailureOffenders != -1 || r.Config.FailureRateScale >= 1e-6 {
		t.Errorf("off regime config: offenders %d rate %g",
			r.Config.FailureOffenders, r.Config.FailureRateScale)
	}

	epi := base
	epi.Failures.Regime = FailureEpidemic
	r, err = Compile(epi, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Config.FailureOffenders != 6 {
		t.Errorf("epidemic default offenders = %d, want 6", r.Config.FailureOffenders)
	}
}

// runOn runs r's config with its Workers set to workers.
func runOn(r *Resolved, workers int) (*core.RunData, error) {
	cfg := r.Config
	cfg.Workers = workers
	d, _, err := core.CollectRun(cfg)
	return d, err
}

// TestRunArchiveParity is the subsystem's end-to-end invariant: run a
// trace-replay scenario, archive it, and require the FromSource report to
// be byte-identical whether computed from the live memory source or from
// the re-opened archive — and invariant under the worker count.
func TestRunArchiveParity(t *testing.T) {
	r, err := Resolve("trace-replay")
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	d1, err := runOn(r, 1)
	if err != nil {
		t.Fatalf("run workers=1: %v", err)
	}
	d4, err := runOn(r, 4)
	if err != nil {
		t.Fatalf("run workers=4: %v", err)
	}
	rep1, err := r.Assess(d1.Source())
	if err != nil {
		t.Fatalf("assess memory: %v", err)
	}
	rep4, err := r.Assess(d4.Source())
	if err != nil {
		t.Fatalf("assess workers=4: %v", err)
	}
	j1 := mustJSON(t, rep1)
	if j4 := mustJSON(t, rep4); j1 != j4 {
		t.Errorf("worker count changed the report:\n w1 %s\n w4 %s", j1, j4)
	}
	if rep1.Label != "trace-replay" || rep1.Hash != r.Identity() || rep1.Seed != r.Seed {
		t.Errorf("report identity not stamped: %+v", rep1)
	}
	if rep1.JobsCompleted == 0 {
		t.Error("trace replay completed no jobs")
	}

	dir := t.TempDir()
	if err := core.WriteDatasets(dir, d1); err != nil {
		t.Fatalf("write datasets: %v", err)
	}
	arch, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open archive: %v", err)
	}
	repA, err := r.Assess(arch)
	if err != nil {
		t.Fatalf("assess archive: %v", err)
	}
	if jA := mustJSON(t, repA); j1 != jA {
		t.Errorf("archive report differs from memory report:\n mem %s\n arc %s", j1, jA)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestBuiltinTraceName(t *testing.T) {
	// The catalog's replay scenarios must point at the embedded sample so
	// the catalog is self-contained (no external files).
	for _, name := range []string{"trace-replay", "mixed-replay"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Workload.TracePath != trace.BuiltinSampleName {
			t.Errorf("%s trace path = %q, want builtin", name, s.Workload.TracePath)
		}
	}
}
