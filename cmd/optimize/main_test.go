package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/whatif"
)

func TestOptionsValidate(t *testing.T) {
	ok := options{strategy: "grid"}
	if err := ok.validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	bad := []options{
		{strategy: "anneal"},
		{strategy: "grid", workers: -1},
		{strategy: "cem", workers: -2},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("case %d: invalid options %+v accepted", i, o)
		}
	}
}

func TestListStudies(t *testing.T) {
	var b strings.Builder
	if err := run(&b, options{list: true}); err != nil {
		t.Fatalf("run(-list): %v", err)
	}
	out := b.String()
	for _, want := range []string{"heatwave-setpoint", "winter-economizer", "cap-placement"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing study %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownStudy(t *testing.T) {
	err := run(&strings.Builder{}, options{study: "no-such", strategy: "grid"})
	if err == nil || !strings.Contains(err.Error(), "unknown study") {
		t.Errorf("unknown study err = %v", err)
	}
}

func TestRunScenarioFile(t *testing.T) {
	dir := t.TempDir()
	scns := filepath.Join(dir, "points.json")
	body := `[
	  {"name": "warm-water", "params": {"supply_setpoint_c": 24}},
	  {"params": {"supply_setpoint_c": 18}, "cap_schedule": [{"after_sec": 1800, "cap_w": 150000}]}
	]`
	if err := os.WriteFile(scns, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "sweep.json")
	var b strings.Builder
	o := options{
		study: "heatwave-setpoint", strategy: "grid",
		scenarios: scns, out: out, workers: 2,
	}
	// The scenario file skips the search, so only 3 runs execute — but
	// they still use the study's 12 h base; keep this as the one slow-ish
	// CLI test.
	if err := run(&b, o); err != nil {
		t.Fatalf("run(-scenarios): %v", err)
	}
	text := b.String()
	if !strings.Contains(text, "warm-water") || !strings.Contains(text, "baseline") {
		t.Errorf("summary missing expected lines:\n%s", text)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("sweep log not written: %v", err)
	}
	for _, want := range []string{`"strategy": "file"`, `"warm-water"`, `"cap_schedule"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("sweep log missing %s", want)
		}
	}
}

// TestBaseConfigMatchesSummitsim pins the one front door: the sweep base for
// a scenario and seed is the config summitsim compiles for `-scenario X
// -seed S` (Lookup, the seed written over the spec's, then Compile). A trace
// replay builds its jobs from the seed, so patching Config.Seed after
// compiling would keep the catalog seed's workload.
func TestBaseConfigMatchesSummitsim(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed uint64
	}{
		{"trace-replay", 7},
		{"trace-replay", 0},
		{"heatwave-summer", 11},
	} {
		got, err := baseConfig(whatif.Study{Scenario: tc.name}, options{seed: tc.seed})
		if err != nil {
			t.Fatalf("%s seed %d: %v", tc.name, tc.seed, err)
		}
		spec, dir, err := scenario.Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if tc.seed != 0 {
			spec.Seed = tc.seed
		}
		want, err := scenario.Compile(spec, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.Config) {
			t.Errorf("%s seed %d: base config differs from summitsim's", tc.name, tc.seed)
		}
	}

	patched, err := scenario.Resolve("trace-replay")
	if err != nil {
		t.Fatal(err)
	}
	patched.Config.Seed = 7
	seeded, err := baseConfig(whatif.Study{Scenario: "trace-replay"}, options{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(seeded.Workload, patched.Config.Workload) {
		t.Error("seeded trace replay kept the catalog seed's workload")
	}
}

func TestRunScenarioFileErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`[]`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []options{
		{study: "heatwave-setpoint", strategy: "grid", scenarios: filepath.Join(dir, "absent.json")},
		{study: "heatwave-setpoint", strategy: "grid", scenarios: empty},
	}
	for i, o := range cases {
		if err := run(&strings.Builder{}, o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
