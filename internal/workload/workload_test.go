package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// validProfile reports whether the profile parameters are physically
// meaningful.
func validProfile(p Profile) bool {
	return p.GPUUtil >= 0 && p.GPUUtil <= 1 &&
		p.CPUUtil >= 0 && p.CPUUtil <= 1 &&
		p.PeriodSec > 0 && p.Duty > 0 && p.Duty <= 1 &&
		p.SwingFrac >= 0 && p.SwingFrac <= 1 &&
		p.RampSec >= 0 && p.NoiseFrac >= 0
}

// swingPerNode is the profile's peak-to-trough per-node power swing in
// watts, noise off and past the ramp: the quantity compared against the
// 868 W edge threshold.
func swingPerNode(p Profile) units.Watts {
	p.NoiseFrac = 0
	base := math.Ceil(p.RampSec/p.PeriodSec+1) * p.PeriodSec
	high := p.Power(0, 0, base+p.PeriodSec*p.Duty/2)
	low := p.Power(0, 0, base+p.PeriodSec*(p.Duty+(1-p.Duty)/2))
	return max(high.Total()-low.Total(), 0)
}

func TestArchetypesValid(t *testing.T) {
	for _, a := range Archetypes() {
		if !validProfile(a.Profile) {
			t.Errorf("archetype %q has invalid profile %+v", a.Name, a.Profile)
		}
		// The edge calibration: gpu_phasic swings past the 868 W threshold,
		// gpu_steady and cpu_heavy stay below it.
		s := swingPerNode(a.Profile)
		switch a.Name {
		case "gpu_phasic":
			if s < units.EdgeThresholdPerNode {
				t.Errorf("gpu_phasic swing %v must reach the edge threshold", s)
			}
		case "gpu_steady", "cpu_heavy":
			if s >= units.EdgeThresholdPerNode {
				t.Errorf("%s swing %v must stay below the edge threshold", a.Name, s)
			}
		}
	}
	if len(Archetypes()) != len(domainArchetypeWeights[0]) {
		t.Error("domain weight rows must match archetype count")
	}
}

func TestActivityShape(t *testing.T) {
	p := Profile{GPUUtil: 1, CPUUtil: 1, PeriodSec: 100, Duty: 0.6,
		SwingFrac: 0.5, RampSec: 10}
	if p.Activity(-1) != 0 {
		t.Error("negative dt must be 0")
	}
	// During ramp.
	if a := p.Activity(5); !(a > 0 && a < 1) {
		t.Errorf("ramp activity = %v", a)
	}
	// High plateau (past ramp, in duty window).
	if a := p.Activity(150); a != 1 {
		t.Errorf("plateau activity = %v, want 1", a)
	}
	// Low phase: 1 - SwingFrac.
	if a := p.Activity(170); a != 0.5 {
		t.Errorf("low-phase activity = %v, want 0.5", a)
	}
}

func TestPowerBounds(t *testing.T) {
	f := func(key uint64, nodeIdx uint8, rawDT float64) bool {
		dt := math.Abs(math.Mod(rawDT, 1e5))
		for _, a := range Archetypes() {
			np := a.Profile.Power(key, int(nodeIdx), dt)
			for _, g := range np.GPU {
				if g < 0 || g > units.Watts(float64(units.GPUTDP)*1.05) {
					return false
				}
			}
			for _, c := range np.CPU {
				if c < 0 || c > units.Watts(float64(units.CPUTDP)*1.05) {
					return false
				}
			}
			if np.Other < 0 || np.Total() > units.NodeMaxPower {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPowerDeterministic(t *testing.T) {
	p := Archetypes()[1].Profile
	a := p.Power(42, 3, 123.0)
	b := p.Power(42, 3, 123.0)
	if a != b {
		t.Error("Power is not deterministic")
	}
	c := p.Power(43, 3, 123.0)
	if a == c {
		t.Error("different keys must decorrelate noise")
	}
}

func TestGPUvsCPUHeavyArchetypes(t *testing.T) {
	arch := Archetypes()
	var gpuHeavy, cpuHeavy Profile
	for _, a := range arch {
		switch a.Name {
		case "gpu_steady":
			gpuHeavy = a.Profile
		case "cpu_heavy":
			cpuHeavy = a.Profile
		}
	}
	g := gpuHeavy.Power(1, 0, 500)
	c := cpuHeavy.Power(1, 0, 500)
	if g.GPU[0] <= c.GPU[0] {
		t.Error("gpu_steady must draw more GPU power than cpu_heavy")
	}
	if g.CPU[0] >= c.CPU[0] {
		t.Error("cpu_heavy must draw more CPU power than gpu_steady")
	}
}

func TestIdleNodePower(t *testing.T) {
	np := IdleNodePower()
	total := float64(np.Total())
	// 4,626 idle nodes must land near the paper's 2.5 MW idle floor.
	sys := total * float64(units.SummitNodes)
	if sys < 2.0e6 || sys > 3.1e6 {
		t.Errorf("system idle = %.2fMW, want ≈2.5MW", sys/1e6)
	}
}

func TestPeakPowerEnvelope(t *testing.T) {
	// A full system running the hottest archetype must approach but not
	// exceed 13 MW.
	p := Profile{GPUUtil: 1, CPUUtil: 1, PeriodSec: 200, Duty: 1,
		SwingFrac: 0, RampSec: 0, NoiseFrac: 0}
	np := p.Power(1, 0, 100)
	sys := float64(np.Total()) * float64(units.SummitNodes)
	if sys < 10e6 || sys > 13.2e6 {
		t.Errorf("system peak = %.2fMW, want ≈10.5-13MW", sys/1e6)
	}
}

func TestDomainString(t *testing.T) {
	if Materials.String() != "Materials" {
		t.Error("domain stringer broken")
	}
	if Domain(-1).String() != "UnknownDomain" || Domain(99).String() != "UnknownDomain" {
		t.Error("out-of-range domain must be UnknownDomain")
	}
}

func testGenConfig(jobs int) GenConfig {
	return GenConfig{
		Seed:              1,
		StartTime:         1_577_836_800, // 2020-01-01
		SpanSec:           365 * 86400,
		Jobs:              jobs,
		MaxNodes:          4608,
		ProjectsPerDomain: 5,
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenConfig{
		{SpanSec: 0, Jobs: 1, MaxNodes: 10, ProjectsPerDomain: 1},
		{SpanSec: 10, Jobs: 0, MaxNodes: 10, ProjectsPerDomain: 1},
		{SpanSec: 10, Jobs: 1, MaxNodes: 0, ProjectsPerDomain: 1},
		{SpanSec: 10, Jobs: 1, MaxNodes: 10, ProjectsPerDomain: 0},
	}
	for _, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("Generate(%+v) accepted invalid config", cfg)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testGenConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(testGenConfig(500))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between runs", i)
		}
	}
}

func TestGeneratePopulation(t *testing.T) {
	cfg := testGenConfig(20000)
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	classCount := map[units.SchedulingClass]int{}
	prevSubmit := int64(0)
	for _, j := range jobs {
		if j.SubmitTime < prevSubmit {
			t.Fatal("jobs not sorted by submit time")
		}
		prevSubmit = j.SubmitTime
		p := j.Class.Policy()
		if j.Nodes < p.MinNodes || j.Nodes > p.MaxNodes {
			t.Fatalf("job %d: %d nodes outside %v range", j.ID, j.Nodes, j.Class)
		}
		if j.Duration <= 0 || j.Duration > j.WalltimeReq {
			t.Fatalf("job %d: duration %d vs request %d", j.ID, j.Duration, j.WalltimeReq)
		}
		if j.WalltimeReq > int64(p.MaxWallHour*3600) {
			t.Fatalf("job %d: request %d exceeds class cap", j.ID, j.WalltimeReq)
		}
		if !validProfile(j.Profile) {
			t.Fatalf("job %d: invalid profile", j.ID)
		}
		if j.SubmitTime < cfg.StartTime || j.SubmitTime >= cfg.StartTime+cfg.SpanSec {
			t.Fatalf("job %d: submit time outside span", j.ID)
		}
		classCount[j.Class]++
	}
	// Class mix: small jobs dominate; every class present.
	if classCount[units.Class5] < classCount[units.Class1]*10 {
		t.Errorf("class mix off: %v", classCount)
	}
	for c := units.Class1; c <= units.Class5; c++ {
		if classCount[c] == 0 {
			t.Errorf("class %v absent from 20k jobs", c)
		}
	}
}

func TestGenerateClass1NodeDistribution(t *testing.T) {
	jobs, err := Generate(testGenConfig(50000))
	if err != nil {
		t.Fatal(err)
	}
	count4096, total, over4000 := 0, 0, 0
	for _, j := range jobs {
		if j.Class != units.Class1 {
			continue
		}
		total++
		if j.Nodes == 4096 {
			count4096++
		}
		if j.Nodes >= 4000 {
			over4000++
		}
	}
	if total < 100 {
		t.Fatalf("only %d class-1 jobs in 50k", total)
	}
	// Paper: >60 % of Class 1 jobs above 4,000 nodes, mode at 4,096.
	if frac := float64(over4000) / float64(total); frac < 0.6 {
		t.Errorf("class-1 over-4000 fraction = %v, want > 0.6", frac)
	}
	if frac := float64(count4096) / float64(total); frac < 0.3 {
		t.Errorf("class-1 4096-node fraction = %v, want > 0.3", frac)
	}
}

func TestGenerateWalltimeCalibration(t *testing.T) {
	jobs, err := Generate(testGenConfig(50000))
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2 []float64
	for _, j := range jobs {
		switch j.Class {
		case units.Class1:
			c1 = append(c1, float64(j.Duration))
		case units.Class2:
			c2 = append(c2, float64(j.Duration))
		}
	}
	p80 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		// Quick quantile via copy-sort.
		cp := append([]float64(nil), xs...)
		for i := 1; i < len(cp); i++ {
			for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
				cp[j], cp[j-1] = cp[j-1], cp[j]
			}
		}
		return cp[int(0.8*float64(len(cp)-1))]
	}
	// Paper: 80 % of Class 1 under 43 min, Class 2 under ~3 h.
	if v := p80(c1); v > 80*60 {
		t.Errorf("class-1 p80 duration = %v min, want < 80", v/60)
	}
	if v := p80(c2); v > 4.5*3600 {
		t.Errorf("class-2 p80 duration = %v h, want < 4.5", v/3600)
	}
}

func TestGenerateScaledSystem(t *testing.T) {
	cfg := testGenConfig(2000)
	cfg.MaxNodes = 64 // tiny test system
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Nodes > 64 {
			t.Fatalf("job %d: %d nodes on 64-node system", j.ID, j.Nodes)
		}
		// Class must be consistent with the clipped node count.
		if units.ClassForNodes(j.Nodes) != j.Class {
			t.Fatalf("job %d: class %v inconsistent with %d nodes", j.ID, j.Class, j.Nodes)
		}
	}
}

func TestEdgeBearingJobsAreMinority(t *testing.T) {
	jobs, err := Generate(testGenConfig(30000))
	if err != nil {
		t.Fatal(err)
	}
	withEdges := 0
	for _, j := range jobs {
		if float64(swingPerNode(j.Profile)) >= float64(units.EdgeThresholdPerNode) {
			withEdges++
		}
	}
	frac := float64(withEdges) / float64(len(jobs))
	// Paper: 96.9 % of jobs show no edges — the generator must keep
	// edge-capable profiles a small minority.
	if frac > 0.12 {
		t.Errorf("edge-capable fraction = %v, want <= 0.12", frac)
	}
	if withEdges == 0 {
		t.Error("no edge-capable jobs at all — dynamics figures would be empty")
	}
}

func BenchmarkGenerate10k(b *testing.B) {
	cfg := testGenConfig(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodePowerEval(b *testing.B) {
	p := Archetypes()[1].Profile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Power(7, i%4096, float64(i%7200))
	}
}
