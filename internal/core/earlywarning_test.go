package core

import (
	"testing"

	"repro/internal/failures"
)

func TestEarlyWarningSynthetic(t *testing.T) {
	// GPU (1,0): warning at t=100 followed by driver error at t=160.
	// GPU (2,3): warning at t=500 with no outcome.
	// GPU (3,1): outcome without precursor (contributes to base rate).
	evs := []failures.Event{
		{Time: 100, Node: 1, Slot: 0, Type: failures.MicrocontrollerWarning},
		{Time: 160, Node: 1, Slot: 0, Type: failures.DriverErrorHandling},
		{Time: 500, Node: 2, Slot: 3, Type: failures.MicrocontrollerWarning},
		{Time: 900, Node: 3, Slot: 1, Type: failures.DriverErrorHandling},
	}
	st, err := EarlyWarning(evs, failures.MicrocontrollerWarning,
		failures.DriverErrorHandling, 300, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Precursors != 2 || st.Followed != 1 {
		t.Fatalf("precursors/followed = %d/%d, want 2/1", st.Precursors, st.Followed)
	}
	if st.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate)
	}
	if st.MedianLeadSec != 60 {
		t.Errorf("median lead = %d, want 60", st.MedianLeadSec)
	}
	// Base rate: 2 outcomes over 1000 gpu-windows.
	if st.BaseRate != 0.002 {
		t.Errorf("base rate = %v, want 0.002", st.BaseRate)
	}
	if st.Lift != 250 {
		t.Errorf("lift = %v, want 250", st.Lift)
	}
}

func TestEarlyWarningWindowBoundary(t *testing.T) {
	evs := []failures.Event{
		{Time: 0, Node: 1, Slot: 0, Type: failures.MicrocontrollerWarning},
		{Time: 301, Node: 1, Slot: 0, Type: failures.DriverErrorHandling},
	}
	st, err := EarlyWarning(evs, failures.MicrocontrollerWarning,
		failures.DriverErrorHandling, 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Followed != 0 {
		t.Error("outcome outside window counted")
	}
	// Different GPU must not count.
	evs[1].Slot = 1
	evs[1].Time = 10
	st, _ = EarlyWarning(evs, failures.MicrocontrollerWarning,
		failures.DriverErrorHandling, 300, 100)
	if st.Followed != 0 {
		t.Error("cross-GPU outcome counted")
	}
}

func TestEarlyWarningErrors(t *testing.T) {
	if _, err := EarlyWarning(nil, failures.DoubleBitError,
		failures.DoubleBitError, 300, 1); err == nil {
		t.Error("identical pair accepted")
	}
	if _, err := EarlyWarning(nil, failures.DoubleBitError,
		failures.PageRetirementEvent, 0, 1); err == nil {
		t.Error("zero window accepted")
	}
	// Empty log: zero stats, no error.
	st, err := EarlyWarning(nil, failures.DoubleBitError,
		failures.PageRetirementEvent, 300, 100)
	if err != nil || st.Precursors != 0 {
		t.Errorf("empty log handling: %+v, %v", st, err)
	}
}

func TestEarlyWarningFromRun(t *testing.T) {
	d := testData(t)
	stats, err := EarlyWarningFromSource(d.Source(), 3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("pairs = %d", len(stats))
	}
	// The engineered cascade emits the outcome at the same timestamp as
	// the precursor, so whenever warnings occurred the hit rate must be
	// substantial and lift far above 1 (the paper's diagnostic claim).
	dbe := stats[1] // DBE -> page retirement
	if dbe.Precursors > 10 {
		if dbe.HitRate < 0.5 {
			t.Errorf("DBE->retirement hit rate = %v, want >= 0.5", dbe.HitRate)
		}
		if dbe.Lift < 5 {
			t.Errorf("DBE->retirement lift = %v, want >> 1", dbe.Lift)
		}
	}
	for _, st := range stats {
		if st.HitRate < 0 || st.HitRate > 1 {
			t.Fatalf("hit rate out of range: %+v", st)
		}
		if st.BaseRate < 0 || st.BaseRate > 1 {
			t.Fatalf("base rate out of range: %+v", st)
		}
	}
}
