package whatif

import (
	"testing"

	"repro/internal/sim"
)

func TestPowerCapExperiment(t *testing.T) {
	base := sim.Config{
		Seed:             13,
		Nodes:            48,
		StartTime:        1_577_836_800,
		DurationSec:      3 * 3600,
		StepSec:          10,
		SamplesPerWindow: 1,
		Jobs:             80,
	}
	outcomes, err := PowerCapExperiment(base, []float64{0.9, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	baseline := outcomes[0]
	if baseline.CapW != 0 || baseline.PeakPowerW <= 0 || baseline.JobsPlaced == 0 {
		t.Fatalf("baseline malformed: %+v", baseline)
	}
	for i, o := range outcomes[1:] {
		if o.CapW <= 0 {
			t.Fatalf("arm %d has no cap", i)
		}
		// Caps must actually constrain the peak: allow the idle floor +
		// estimate error margin, but the capped peak may not exceed the
		// cap by more than the estimation slack (~15%).
		if o.PeakPowerW > o.CapW*1.15 {
			t.Errorf("arm %d: peak %.0f blew through cap %.0f", i, o.PeakPowerW, o.CapW)
		}
		// Conservation: every job either ran or was skipped.
		if o.JobsPlaced+o.JobsSkipped != baseline.JobsPlaced+baseline.JobsSkipped {
			t.Errorf("arm %d job conservation: %d+%d vs baseline %d+%d",
				i, o.JobsPlaced, o.JobsSkipped, baseline.JobsPlaced, baseline.JobsSkipped)
		}
	}
	// Tighter caps cannot raise the peak.
	if outcomes[2].PeakPowerW > outcomes[1].PeakPowerW+1 {
		t.Errorf("tighter cap raised peak: %.0f vs %.0f",
			outcomes[2].PeakPowerW, outcomes[1].PeakPowerW)
	}
	// Tighter caps can only skip more jobs (infeasible estimates grow).
	if outcomes[2].JobsSkipped < outcomes[1].JobsSkipped ||
		outcomes[1].JobsSkipped < baseline.JobsSkipped {
		t.Errorf("skips not monotone: %d, %d, %d",
			baseline.JobsSkipped, outcomes[1].JobsSkipped, outcomes[2].JobsSkipped)
	}
	// The scheduling cost shows up as skips and/or waits; both are
	// reported, neither may be negative.
	for i, o := range outcomes {
		if o.MeanWaitSec < 0 {
			t.Errorf("arm %d negative wait", i)
		}
	}
}

func TestPowerCapExperimentValidation(t *testing.T) {
	base := sim.Config{
		Seed: 1, Nodes: 16, StartTime: 0, DurationSec: 1800,
		StepSec: 10, Jobs: 10,
	}
	if _, err := PowerCapExperiment(base, []float64{1.5}); err == nil {
		t.Error("cap fraction > 1 accepted")
	}
	if _, err := PowerCapExperiment(base, []float64{0}); err == nil {
		t.Error("cap fraction 0 accepted")
	}
	bad := sim.Config{}
	if _, err := PowerCapExperiment(bad, nil); err == nil {
		t.Error("invalid base config accepted")
	}
}
