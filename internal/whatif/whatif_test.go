package whatif

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// hashScenarioA/B are fixed probe scenarios; their hashes are pinned so a
// refactor of the canonical form (which would silently re-seed every
// archived sweep) fails loudly.
func hashScenarioA() Scenario {
	return Scenario{Params: map[Param]float64{
		ParamSupplySetpointC: 19.5,
		ParamStageDownFrac:   0.86,
	}}
}

func hashScenarioB() Scenario {
	return Scenario{Params: map[Param]float64{
		ParamPowerCapMW: 0.14,
		ParamPlacement:  2,
	}}
}

func TestScenarioHashStability(t *testing.T) {
	cases := []struct {
		name string
		scn  Scenario
		want uint64
	}{
		{"empty", Scenario{}, 0xcbf29ce484222325}, // FNV-1a offset basis
		{"knobs", hashScenarioA(), 0x70108e8da85e5e2a},
	}
	for _, tc := range cases {
		if got := tc.scn.Hash(); got != tc.want {
			t.Errorf("%s: Hash() = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
	// The name is cosmetic: renaming must not change the identity.
	named := hashScenarioA()
	named.Name = "renamed"
	if named.Hash() != hashScenarioA().Hash() {
		t.Errorf("Hash() changed with Name: %#x vs %#x", named.Hash(), hashScenarioA().Hash())
	}
}

func TestSeedDerivation(t *testing.T) {
	const want = uint64(4258295761522078221)
	if got := Seed(2020, hashScenarioA()); got != want {
		t.Errorf("Seed(2020, a) = %d, want %d", got, want)
	}
	if Seed(2020, hashScenarioA()) == Seed(2021, hashScenarioA()) {
		t.Error("Seed ignores the base seed")
	}
	if Seed(2020, hashScenarioA()) == Seed(2020, hashScenarioB()) {
		t.Error("Seed ignores the scenario")
	}
	if Seed(2020, Scenario{}) == 0 {
		t.Error("nominal seed must not collapse to zero")
	}
}

func TestScenarioLabel(t *testing.T) {
	if got := (Scenario{}).Label(); got != "nominal" {
		t.Errorf("empty label = %q, want nominal", got)
	}
	if got := hashScenarioA().Label(); got != "stage_down_frac=0.86 supply_setpoint_c=19.5" {
		t.Errorf("label = %q", got)
	}
	if got := hashScenarioB().Label(); got != "placement=2 power_cap_mw=0.14" {
		t.Errorf("label = %q", got)
	}
	named := hashScenarioA()
	named.Name = "warm-water"
	if got := named.Label(); got != "warm-water" {
		t.Errorf("named label = %q", got)
	}
}

func TestScenarioApply(t *testing.T) {
	base := sim.Scaled(64, 3600)
	scn := Scenario{Params: map[Param]float64{
		ParamSupplySetpointC: 23,
		ParamTowerKWPerTon:   0.2,
		ParamChillerKWPerTon: 0.8,
		ParamStageUpFrac:     1.05,
		ParamStageDownFrac:   0.85,
		ParamPowerCapMW:      0.5,
		ParamPlacement:       1,
	}}
	cfg, err := scn.Apply(base)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if math.Abs(cfg.Plant.SupplySetpointC-23) > 1e-12 ||
		math.Abs(cfg.Plant.TowerKWPerTon-0.2) > 1e-12 ||
		math.Abs(cfg.Plant.StageDownFrac-0.85) > 1e-12 {
		t.Errorf("plant knobs not applied: %+v", cfg.Plant)
	}
	if math.Abs(float64(cfg.PowerCap)-0.5e6) > 1e-6 {
		t.Errorf("PowerCap = %v, want 0.5 MW", cfg.PowerCap)
	}
	if cfg.Placement != "packed" {
		t.Errorf("Placement = %q, want packed", cfg.Placement)
	}
	if base.Placement != "" || base.PowerCap != 0 {
		t.Error("Apply mutated the base config")
	}
}

func TestScenarioApplyRejects(t *testing.T) {
	base := sim.Scaled(64, 3600)
	cases := []struct {
		name string
		scn  Scenario
	}{
		{"unknown param", Scenario{Params: map[Param]float64{"mystery_knob": 1}}},
		{"negative cap", Scenario{Params: map[Param]float64{ParamPowerCapMW: -1}}},
		{"fractional placement", Scenario{Params: map[Param]float64{ParamPlacement: 1.5}}},
		{"placement out of range", Scenario{Params: map[Param]float64{ParamPlacement: 3}}},
		{"setpoint out of band", Scenario{Params: map[Param]float64{ParamSupplySetpointC: 60}}},
		{"inverted staging", Scenario{Params: map[Param]float64{
			ParamStageUpFrac: 0.8, ParamStageDownFrac: 0.9}}},
		{"NaN setpoint", Scenario{Params: map[Param]float64{ParamSupplySetpointC: math.NaN()}}},
		{"NaN cap", Scenario{Params: map[Param]float64{ParamPowerCapMW: math.NaN()}}},
		{"+Inf cap", Scenario{Params: map[Param]float64{ParamPowerCapMW: math.Inf(1)}}},
	}
	for _, tc := range cases {
		if _, err := tc.scn.Apply(base); !errors.Is(err, ErrScenario) {
			t.Errorf("%s: err = %v, want ErrScenario", tc.name, err)
		}
	}
}

func TestGridExpansion(t *testing.T) {
	axes := []Axis{
		{Param: ParamSupplySetpointC, Values: []float64{18, 21, 24}},
		{Param: ParamStageDownFrac, Values: []float64{0.85, 0.92}},
	}
	grid := Grid(axes)
	if len(grid) != 6 {
		t.Fatalf("grid size = %d, want 6", len(grid))
	}
	// First axis slowest: setpoint changes every 2 points.
	if got := grid[0].Params[ParamSupplySetpointC]; math.Abs(got-18) > 1e-12 {
		t.Errorf("grid[0] setpoint = %g", got)
	}
	if got := grid[1].Params[ParamStageDownFrac]; math.Abs(got-0.92) > 1e-12 {
		t.Errorf("grid[1] deadband = %g", got)
	}
	if got := grid[5].Params[ParamSupplySetpointC]; math.Abs(got-24) > 1e-12 {
		t.Errorf("grid[5] setpoint = %g", got)
	}
	seen := map[uint64]bool{}
	for _, s := range grid {
		if seen[s.Hash()] {
			t.Fatalf("duplicate grid point %s", s.Label())
		}
		seen[s.Hash()] = true
	}
}

func TestValidateAxes(t *testing.T) {
	cases := []struct {
		name string
		axes []Axis
	}{
		{"empty", nil},
		{"no values", []Axis{{Param: ParamSupplySetpointC}}},
		{"duplicate", []Axis{
			{Param: ParamSupplySetpointC, Values: []float64{18}},
			{Param: ParamSupplySetpointC, Values: []float64{21}}}},
		{"descending", []Axis{{Param: ParamSupplySetpointC, Values: []float64{21, 18}}}},
	}
	for _, tc := range cases {
		if err := validateAxes(tc.axes); !errors.Is(err, ErrScenario) {
			t.Errorf("%s: err = %v, want ErrScenario", tc.name, err)
		}
	}
	ok := []Axis{{Param: ParamSupplySetpointC, Values: []float64{18, 21.1, 24}}}
	if err := validateAxes(ok); err != nil {
		t.Errorf("valid axes rejected: %v", err)
	}
}

func TestParetoFront(t *testing.T) {
	mk := func(label string, energy, viol float64) Report {
		return Report{Label: label, TotalEnergyMWh: energy, ViolationSec: viol}
	}
	reports := []Report{
		mk("hot-cheap", 0.80, 120), // frontier: cheapest
		mk("dominated", 0.90, 120), // same violations, more energy
		mk("balanced", 0.85, 30),   // frontier
		mk("cold-dear", 0.95, 0),   // frontier: zero violations
		mk("worse-cold", 0.97, 0),  // dominated by cold-dear
	}
	front := ParetoFront(reports)
	if len(front) != 3 {
		t.Fatalf("frontier size = %d, want 3 (%v)", len(front), front)
	}
	want := []string{"hot-cheap", "balanced", "cold-dear"}
	for i, w := range want {
		if front[i].Label != w {
			t.Errorf("front[%d] = %s, want %s", i, front[i].Label, w)
		}
	}
}

// goldenBase is the small floor behind the golden grid and the
// reproducibility tests: 64 nodes for one hour of a mid-July afternoon.
func goldenBase() sim.Config {
	cfg := sim.Scaled(64, 3600)
	cfg.StartTime += midJulyOffsetSec
	return cfg
}

func goldenAxes() []Axis {
	return []Axis{{Param: ParamSupplySetpointC, Values: []float64{18.0, 21.1, 24.0}}}
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.6f, want %.6f (±%g)", name, got, want, tol)
	}
}

// TestGoldenGridReport pins the objective report of a 3-point setpoint
// grid on the small floor. These numbers are the package's contract: a
// change here means archived sweep logs no longer reproduce.
func TestGoldenGridReport(t *testing.T) {
	res, err := RunGrid(goldenBase(), goldenAxes(), Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	if len(res.Evaluated) != 4 { // nominal + 3 grid points
		t.Fatalf("evaluations = %d, want 4", len(res.Evaluated))
	}

	const tol = 1e-5
	base := res.Baseline
	within(t, "baseline PUE", base.MeanPUE, 1.190271, tol)
	within(t, "baseline total MWh", base.TotalEnergyMWh, 0.093659, tol)
	within(t, "baseline IT MWh", base.ITEnergyMWh, 0.078687, tol)
	within(t, "baseline overcooling", base.OvercoolingTonH, 1.4682, 1e-3)
	within(t, "baseline score", base.Score, 0.123022, tol)
	if base.ViolationSec != 0 || base.JobsSkipped != 0 || base.Failures != 0 {
		t.Errorf("baseline viol/skip/fail = %v/%d/%d, want 0",
			base.ViolationSec, base.JobsSkipped, base.Failures)
	}
	if base.JobsCompleted != 6 {
		t.Errorf("baseline jobs completed = %d, want 6", base.JobsCompleted)
	}

	wantScores := map[string]struct{ pue, tot, score float64 }{
		"supply_setpoint_c=18":   {1.277544, 0.100526, 0.129889},
		"supply_setpoint_c=21.1": {1.190604, 0.093685, 0.123048},
		"supply_setpoint_c=24":   {1.105139, 0.086960, 0.116323},
	}
	found := 0
	for _, r := range res.Evaluated {
		w, ok := wantScores[r.Label]
		if !ok {
			continue
		}
		found++
		within(t, r.Label+" PUE", r.MeanPUE, w.pue, tol)
		within(t, r.Label+" total MWh", r.TotalEnergyMWh, w.tot, tol)
		within(t, r.Label+" score", r.Score, w.score, tol)
	}
	if found != 3 {
		t.Errorf("matched %d of 3 golden grid points", found)
	}

	// On this floor a warmer loop is strictly cheaper with no violations,
	// so the best point is the 24 °C corner and it beats nominal.
	if res.Best.Label != "supply_setpoint_c=24" {
		t.Errorf("best = %s, want supply_setpoint_c=24", res.Best.Label)
	}
	if !(res.Best.Score < res.Baseline.Score) {
		t.Errorf("best score %.6f does not beat baseline %.6f",
			res.Best.Score, res.Baseline.Score)
	}
	if len(res.Pareto) == 0 {
		t.Error("empty Pareto frontier")
	}
	if len(res.Sensitivity) != 1 || res.Sensitivity[0].Param != ParamSupplySetpointC {
		t.Fatalf("sensitivity = %+v", res.Sensitivity)
	}
	if res.Sensitivity[0].Swing <= 0 {
		t.Error("setpoint swing should be positive on this floor")
	}
}

// TestBatchBitReproducible checks the acceptance property directly: the
// full sweep log is byte-identical no matter how many workers ran it.
func TestBatchBitReproducible(t *testing.T) {
	run := func(workers int) []byte {
		res, err := RunGrid(goldenBase(), goldenAxes(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("RunGrid(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	for _, workers := range []int{3, 8} {
		if par := run(workers); !bytes.Equal(serial, par) {
			t.Errorf("sweep log differs between Workers=1 and Workers=%d", workers)
		}
	}
}

func TestCoordinateDescentConverges(t *testing.T) {
	axes := []Axis{
		{Param: ParamSupplySetpointC, Values: []float64{18.0, 21.1, 24.0}},
		{Param: ParamStageDownFrac, Values: []float64{0.86, 0.92}},
	}
	res, err := RunCoordinateDescent(goldenBase(), axes, Options{})
	if err != nil {
		t.Fatalf("RunCoordinateDescent: %v", err)
	}
	// The cache must keep revisited line points free: nominal + the
	// round-1 lines (3+2) + at most one refinement line per axis.
	if len(res.Evaluated) > 1+(3+2)+(3+2) {
		t.Errorf("cd evaluated %d points, cache not deduplicating", len(res.Evaluated))
	}
	if !(res.Best.Score <= res.Baseline.Score) {
		t.Errorf("cd best %.6f worse than baseline %.6f", res.Best.Score, res.Baseline.Score)
	}
}

func TestCEMReproducible(t *testing.T) {
	axes := goldenAxes()
	a, err := RunCEM(goldenBase(), axes, Options{Workers: 1})
	if err != nil {
		t.Fatalf("RunCEM: %v", err)
	}
	b, err := RunCEM(goldenBase(), axes, Options{Workers: 4})
	if err != nil {
		t.Fatalf("RunCEM: %v", err)
	}
	if a.Best.Hash != b.Best.Hash || len(a.Evaluated) != len(b.Evaluated) {
		t.Errorf("CEM diverges across worker counts: best %s/%s, %d/%d evals",
			a.Best.Hash, b.Best.Hash, len(a.Evaluated), len(b.Evaluated))
	}
	within(t, "cem best score", a.Best.Score, b.Best.Score, 0)
	if !(a.Best.Score <= a.Baseline.Score) {
		t.Errorf("cem best %.6f worse than baseline %.6f", a.Best.Score, a.Baseline.Score)
	}
}

func TestStudyCatalog(t *testing.T) {
	studies := Catalog()
	if len(studies) < 3 {
		t.Fatalf("catalog has %d studies, want >= 3", len(studies))
	}
	for i, s := range studies {
		if i > 0 && studies[i-1].Name >= s.Name {
			t.Errorf("catalog not sorted at %q", s.Name)
		}
		if err := validateAxes(s.Axes); err != nil {
			t.Errorf("study %q axes invalid: %v", s.Name, err)
		}
		if s.Scenario == "" {
			t.Errorf("study %q names no base scenario", s.Name)
		}
		got, err := StudyByName(s.Name)
		if err != nil || got.Name != s.Name {
			t.Errorf("StudyByName(%q) = %q, %v", s.Name, got.Name, err)
		}
	}
	if _, err := StudyByName("no-such-study"); !errors.Is(err, ErrScenario) {
		t.Errorf("unknown study err = %v, want ErrScenario", err)
	}
}

func TestEvaluateErrors(t *testing.T) {
	base := goldenBase()
	if _, err := Evaluate(base, nil, Options{}); err == nil {
		t.Error("empty scenario list must error")
	}
	bad := []Scenario{{Params: map[Param]float64{"mystery_knob": 1}}}
	if _, err := Evaluate(base, bad, Options{}); !errors.Is(err, ErrScenario) {
		t.Errorf("bad scenario err = %v, want ErrScenario", err)
	}
}

// TestSensitivityOfANominalBest: when the nominal arm scores best, each
// knob's best value is unset — absent from the sweep log and "nominal" in
// the summary — never the 0 an empty Params map reads as; a best point that
// sets the knob reports its value.
func TestSensitivityOfANominalBest(t *testing.T) {
	axes := []Axis{{Param: ParamPowerCapMW, Values: []float64{0.102, 0.131}}}
	nominal := Report{Label: "nominal", Score: 1}
	capped := func(mw, score float64) Report {
		return Report{Scenario: Scenario{Params: map[Param]float64{ParamPowerCapMW: mw}}, Label: "capped", Score: score}
	}
	for _, c := range []struct {
		evaluated []Report
		best      int
		summary   string
		json      string
	}{
		{[]Report{nominal, capped(0.102, 4), capped(0.131, 2)}, 0, "best nominal ", ""},
		{[]Report{{Label: "nominal", Score: 5}, capped(0.102, 4), capped(0.131, 2)}, 2, "best 0.131 ", `"best_value": 0.131`},
	} {
		best := c.evaluated[c.best]
		sens := sensitivities(axes, c.evaluated, best)
		if len(sens) != 1 || sens[0].Swing != 3 {
			t.Fatalf("best %s: sensitivity = %+v, want one knob with swing 3", best.Label, sens)
		}
		res := SweepResult{Strategy: "grid", Evaluated: c.evaluated, Baseline: c.evaluated[0], Best: best, Sensitivity: sens}
		if got := res.Summary(); !strings.Contains(got, "power_cap_mw") || !strings.Contains(got, c.summary) {
			t.Errorf("best %s: summary lacks %q:\n%s", best.Label, c.summary, got)
		}
		var log bytes.Buffer
		if err := res.WriteJSON(&log); err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(log.String(), `"best_value"`); got != (c.json != "") || !strings.Contains(log.String(), c.json) {
			t.Errorf("best %s: sweep log best_value, want %q:\n%s", best.Label, c.json, log.String())
		}
	}
}

// TestAssessIsAssessSource: a sweep point and an archived run get one
// score. On a capped run that skips work, Assess equals AssessSource of the
// run's source bit for bit in every metric; it adds only the scenario's
// identity and the skipped jobs, which no source holds, and scores that.
func TestAssessIsAssessSource(t *testing.T) {
	scn := Scenario{Params: map[Param]float64{ParamPowerCapMW: 0.05}}
	cfg, err := scn.Apply(goldenBase())
	if err != nil {
		t.Fatal(err)
	}
	d, res, err := core.CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatal("the capped run skipped no job; the test needs one that does")
	}
	w := DefaultWeights()
	rep, err := Assess(d, res, scn, Seed(cfg.Seed, scn), w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AssessSource(d.Source(), w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsSkipped != res.Skipped {
		t.Errorf("JobsSkipped = %d, want the run's %d", rep.JobsSkipped, res.Skipped)
	}
	if score := w.Score(&rep); math.Float64bits(rep.Score) != math.Float64bits(score) {
		t.Errorf("Score = %v, want the weights' %v", rep.Score, score)
	}
	// Everything else must be AssessSource's: blank the fields it cannot
	// know on both sides and compare the rest field by field.
	for _, r := range []*Report{&rep, &want} {
		r.Scenario, r.Label, r.Hash, r.Seed, r.JobsSkipped, r.Score = Scenario{}, "", "", 0, 0, 0
	}
	got, exp := reflect.ValueOf(rep), reflect.ValueOf(want)
	for i := 0; i < got.NumField(); i++ {
		g, e := got.Field(i), exp.Field(i)
		same := reflect.DeepEqual(g.Interface(), e.Interface())
		if g.Kind() == reflect.Float64 {
			same = math.Float64bits(g.Float()) == math.Float64bits(e.Float())
		}
		if !same {
			t.Errorf("%s = %v, AssessSource says %v", got.Type().Field(i).Name, g, e)
		}
	}
}
