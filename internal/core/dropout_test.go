package core

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/topology"
	"repro/internal/units"
)

// Telemetry-dropout robustness: the paper lost temperature data for a
// whole season and a whole cabinet during its exemplar job, and the
// analyses still ran. The pipeline here must do the same.

func dropoutData(t *testing.T) *RunData {
	t.Helper()
	cfg := sim.Config{
		Seed:              41,
		Nodes:             72,
		StartTime:         1_577_836_800,
		DurationSec:       2 * 3600,
		StepSec:           10,
		SamplesPerWindow:  1,
		Jobs:              60,
		FailureRateScale:  2000,
		FailureCheckSec:   300,
		TelemetryLossFrac: 0.15,
	}
	d, _, err := CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDropoutConfigValidation(t *testing.T) {
	bad := sim.Config{Nodes: 4, DurationSec: 100, Jobs: 1, TelemetryLossFrac: 1.2}
	if err := bad.Validate(); err == nil {
		t.Error("loss fraction > 1 accepted")
	}
	neg := sim.Config{Nodes: 4, DurationSec: 100, Jobs: 1, TelemetryLossFrac: -0.1}
	if err := neg.Validate(); err == nil {
		t.Error("negative loss fraction accepted")
	}
}

func TestDropoutClusterViewDegradesGracefully(t *testing.T) {
	d := dropoutData(t)
	power, truePower := runSeries(t, d, source.SeriesClusterPower), runSeries(t, d, source.SeriesClusterTruePower)
	// Cluster power still has a value every window (losses are per node).
	clean := power.Clean()
	if len(clean) != power.Len() {
		t.Errorf("cluster power has %d empty windows", power.Len()-len(clean))
	}
	// The telemetry view undercounts the truth: sensors read ~11% high,
	// so with ~15% + dark-cabinet loss the sums drop below bias*truth.
	var sensorSum, trueSum float64
	for i := 0; i < power.Len(); i++ {
		sensorSum += power.Vals[i]
		trueSum += truePower.Vals[i]
	}
	ratio := sensorSum / trueSum
	if ratio > 1.05 || ratio < 0.6 {
		t.Errorf("sensor/true ratio = %v, want in [0.6, 1.05] under dropout (dark cabinet is 25%% of a 4-cabinet floor)", ratio)
	}
}

func TestDropoutAnalysesStillRun(t *testing.T) {
	d := dropoutData(t)
	if _, err := Figure5Trends(d.Source()); err != nil {
		t.Errorf("trends: %v", err)
	}
	recs := d.Source().Jobs
	if len(recs) == 0 {
		t.Error("no job records under dropout")
	}
	for _, r := range recs {
		if math.IsNaN(r.MeanPowerW) || math.IsNaN(r.EnergyJ) {
			t.Fatalf("job %d has NaN aggregates", r.AllocationID)
		}
	}
	if _, err := Figure10Dynamics(d.Source()); err != nil {
		t.Fatal(err)
	}
	rows, err := ThermalBandsFromSource(d.Source())
	if err != nil {
		t.Fatal(err)
	}
	// Band counts now cover fewer than all GPUs on average.
	var meanSum float64
	for _, r := range rows {
		meanSum += r.MeanGPUs
	}
	total := float64(d.Source().RunMeta.Nodes * units.GPUsPerNode)
	if meanSum >= total {
		t.Errorf("band mean coverage %v not reduced below %v by dropout", meanSum, total)
	}
	if meanSum < total*0.5 {
		t.Errorf("band coverage %v collapsed (want ~0.8x of %v)", meanSum, total)
	}
}

func TestDarkCabinetFullyAbsent(t *testing.T) {
	// Run a sim directly and verify the dark cabinet never reports.
	cfg := sim.Config{
		Seed: 41, Nodes: 72, StartTime: 0, DurationSec: 600,
		StepSec: 10, Jobs: 5, TelemetryLossFrac: 0.05,
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	darkCab := int(cfg.Seed) % ((cfg.Nodes + units.NodesPerCabinet - 1) / units.NodesPerCabinet)
	reported := 0
	if _, err := s.Run(sim.ObserverFunc(func(snap *sim.Snapshot) {
		for i := range snap.NodeStat {
			if i/units.NodesPerCabinet == darkCab && snap.NodeStat[i].Count > 0 {
				reported++
			}
		}
	})); err != nil {
		t.Fatal(err)
	}
	if reported != 0 {
		t.Errorf("dark cabinet reported %d node-windows, want 0", reported)
	}
}

// TestOneCabinetFloorKeepsItsTelemetry: a floor of one cabinet has no dark
// cabinet — darkening its only one would leave the run without telemetry,
// cluster power reading 0 W in every window and no job observed. A 36-node
// frontier run (one cabinet) at 5 % loss archives job records and a finite,
// positive cluster power in every window.
func TestOneCabinetFloorKeepsItsTelemetry(t *testing.T) {
	cfg := sim.Scaled(36, 8640)
	cfg.Site, cfg.TelemetryLossFrac = topology.SiteFrontier, 0.05
	d, _, err := CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if jobs, err := src.JobRecords(); err != nil || len(jobs) == 0 {
		t.Errorf("%d job records archived (%v), want some", len(jobs), err)
	}
	power, err := src.Series(source.SeriesClusterPower)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range power.Vals {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Fatalf("window %d of %d: cluster power %v W, want finite and positive", i, power.Len(), v)
		}
	}
}
