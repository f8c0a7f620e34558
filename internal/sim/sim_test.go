package sim

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

func smallConfig() Config {
	return Config{
		Seed:             7,
		Nodes:            36, // two cabinets
		StartTime:        1_577_836_800,
		DurationSec:      2 * 3600,
		StepSec:          10,
		SamplesPerWindow: 2,
		Jobs:             40,
		FailureRateScale: 50000,
		FailureCheckSec:  300,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, DurationSec: 10, Jobs: 1},
		{Nodes: 4, DurationSec: 0, Jobs: 1},
		{Nodes: 4, DurationSec: 10},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
}

// TestSpanIsWholeWindows: Validate cuts a span down to whole windows, so Run
// produces the DurationSec/StepSec windows the collector and run-meta count,
// and refuses a span shorter than one window.
func TestSpanIsWholeWindows(t *testing.T) {
	cfg := Scaled(4, 3600)
	cfg.DurationSec = 3605
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config().DurationSec; got != 3600 {
		t.Errorf("a 3605 s span validated to %d s, want 3600", got)
	}
	n := 0
	if _, err := s.Run(ObserverFunc(func(*Snapshot) { n++ })); err != nil {
		t.Fatal(err)
	}
	if want := int(3600 / cfg.StepSec); n != want {
		t.Errorf("Run produced %d windows, want %d", n, want)
	}
	cfg.DurationSec = cfg.StepSec - 1
	if err := cfg.Validate(); err == nil {
		t.Errorf("a %d s span with a %d s step validated", cfg.DurationSec, cfg.StepSec)
	}
}

// TestWorkloadRefusesDuplicateJobIDs: a workload whose two jobs share ID 7
// is refused, naming the ID and both indices. Accepted, such a 16-node run
// keys both jobs to one power series, so Figure 10's per-job dynamics
// report two entries built from the one merged series.
func TestWorkloadRefusesDuplicateJobIDs(t *testing.T) {
	cfg := Scaled(16, 3600)
	job := workload.Job{ID: 7, User: "u", Project: "p", Class: units.Class5, Nodes: 2,
		SubmitTime: cfg.StartTime, WalltimeReq: 3600, Duration: 1800}
	other := job
	other.Project = "q"
	cfg.Workload = []workload.Job{job, other}
	err := cfg.Validate()
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("Validate = %v, want ErrConfig", err)
	}
	for _, want := range []string{"jobs 0 and 1", "job ID 7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if _, err := New(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("New = %v, want ErrConfig", err)
	}
	other.ID = 8
	cfg.Workload = []workload.Job{job, other}
	if err := cfg.Validate(); err != nil {
		t.Errorf("distinct IDs refused: %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Nodes: 4, DurationSec: 100, Jobs: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.StepSec != 10 || cfg.SamplesPerWindow != 1 || cfg.FailureCheckSec != 300 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	// Failure check must align to the step.
	cfg2 := Config{Nodes: 4, DurationSec: 100, Jobs: 1, StepSec: 7, FailureCheckSec: 20}
	if err := cfg2.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg2.FailureCheckSec%cfg2.StepSec != 0 {
		t.Errorf("failure check %d not aligned to step %d", cfg2.FailureCheckSec, cfg2.StepSec)
	}
}

func TestRunBasicInvariants(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	var minPUE, maxPUE = math.Inf(1), math.Inf(-1)
	res, err := s.Run(ObserverFunc(func(snap *Snapshot) {
		steps++
		if snap.ClusterSensorPower <= 0 {
			t.Fatal("non-positive cluster power")
		}
		// Sensor reads high: cluster sensor power must exceed truth.
		if snap.ClusterSensorPower <= snap.ClusterTruePower {
			t.Fatal("sensor bias missing")
		}
		// Idle floor ≈ nodes × ~600 W; ceiling nodes × 2300 W.
		perNode := float64(snap.ClusterTruePower) / 36
		if perNode < 400 || perNode > 2400 {
			t.Fatalf("per-node true power %v implausible", perNode)
		}
		if !math.IsNaN(snap.PUE) {
			minPUE = math.Min(minPUE, snap.PUE)
			maxPUE = math.Max(maxPUE, snap.PUE)
		}
		for i := range snap.NodeStat {
			st := snap.NodeStat[i]
			if st.Min > st.Mean || st.Mean > st.Max {
				t.Fatal("window stat ordering broken")
			}
			if st.Count != 2 {
				t.Fatalf("samples per window = %d, want 2", st.Count)
			}
			for g := 0; g < units.GPUsPerNode; g++ {
				temp := snap.GPUCoreTemp[i][g]
				if temp < 15 || temp > 75 {
					t.Fatalf("GPU temp %v out of physical range", temp)
				}
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if steps != res.Steps || steps != int(2*3600/10) {
		t.Errorf("steps = %d, want 720", steps)
	}
	if len(res.Allocations) == 0 {
		t.Error("no allocations")
	}
	// PUE small and above 1 because fixed overhead is amortized over a
	// tiny 36-node cluster — just require > 1 and finite.
	if minPUE <= 1 || math.IsInf(maxPUE, 0) {
		t.Errorf("PUE range [%v, %v] implausible", minPUE, maxPUE)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() []float64 {
		s, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		var trace []float64
		if _, err := s.Run(ObserverFunc(func(snap *Snapshot) {
			trace = append(trace, float64(snap.ClusterSensorPower), snap.GPUCoreTemp[5][3])
		})); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunAllocationTracking(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	busySeen := false
	allocs := s.Allocations() // observers read the snapshot, never the Sim
	if _, err := s.Run(ObserverFunc(func(snap *Snapshot) {
		for i, aIdx := range snap.AllocIdx {
			if aIdx < 0 {
				continue
			}
			busySeen = true
			a := allocs[aIdx]
			if !slices.Contains(a.NodeIDs, topology.NodeID(i)) {
				t.Fatalf("node %d marked under alloc %d which excludes it", i, aIdx)
			}
			if snap.T < a.StartTime || snap.T >= a.EndTime {
				t.Fatalf("node %d active outside allocation window", i)
			}
		}
	})); err != nil {
		t.Fatal(err)
	}
	if !busySeen {
		t.Error("no node ever allocated in 2h run with 40 jobs")
	}
}

func TestRunActiveNodesDrawMore(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var idleSum, idleN, busySum, busyN float64
	if _, err := s.Run(ObserverFunc(func(snap *Snapshot) {
		for i, aIdx := range snap.AllocIdx {
			if aIdx < 0 {
				idleSum += snap.TruePower[i]
				idleN++
			} else {
				busySum += snap.TruePower[i]
				busyN++
			}
		}
	})); err != nil {
		t.Fatal(err)
	}
	if idleN == 0 || busyN == 0 {
		t.Skip("degenerate run: all-idle or all-busy")
	}
	if busySum/busyN <= idleSum/idleN {
		t.Errorf("busy mean %v must exceed idle mean %v", busySum/busyN, idleSum/idleN)
	}
}

func TestRunFailuresHaveContext(t *testing.T) {
	cfg := smallConfig()
	cfg.FailureRateScale = 200000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("no failures with huge rate scale")
	}
	withJob, withTemp := 0, 0
	for _, e := range res.Failures {
		if e.Node < 0 || int(e.Node) >= cfg.Nodes || e.Slot < 0 || e.Slot > 5 {
			t.Fatalf("failure location out of range: %+v", e)
		}
		if e.JobID != 0 {
			withJob++
		}
		if e.HasTemp() {
			withTemp++
			if e.TempC < 10 || e.TempC > 80 {
				t.Fatalf("failure temp %v implausible", e.TempC)
			}
		}
	}
	if withJob == 0 {
		t.Error("no failure carries job context")
	}
	if withTemp == 0 {
		t.Error("no failure carries thermal context")
	}
}

func TestRunMeterValidationProperty(t *testing.T) {
	// Figure 4's premise must hold live: per-MSB meter < per-MSB sensor
	// summation, tightly in phase.
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	under, total := 0, 0
	if _, err := s.Run(ObserverFunc(func(snap *Snapshot) {
		var meterSum float64
		for _, m := range snap.MeterPower {
			meterSum += float64(m)
		}
		total++
		if meterSum < float64(snap.ClusterSensorPower) {
			under++
		}
	})); err != nil {
		t.Fatal(err)
	}
	if frac := float64(under) / float64(total); frac < 0.95 {
		t.Errorf("meter < summation only %v of windows, want ~always", frac)
	}
}
