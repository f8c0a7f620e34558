package main

import (
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
