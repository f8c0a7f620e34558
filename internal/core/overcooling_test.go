package core

import (
	"testing"

	"repro/internal/source"
)

func TestOvercooling(t *testing.T) {
	d := testData(t)
	rep, err := OvercoolingFromSource(d.Source())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows == 0 {
		t.Fatal("no windows analyzed")
	}
	if rep.ExcessTonHours < 0 || rep.DeficitTonHours < 0 {
		t.Fatalf("negative integrals: %+v", rep)
	}
	if rep.ExcessFrac < 0 || rep.ExcessFrac > 1 {
		t.Fatalf("excess fraction = %v", rep.ExcessFrac)
	}
	if rep.PostFallShare < 0 || rep.PostFallShare > 1 {
		t.Fatalf("post-fall share = %v", rep.PostFallShare)
	}
	// The plant tracks load with lags: both transient excess and deficit
	// exist but neither dominates delivery.
	if rep.ExcessFrac > 0.5 {
		t.Errorf("excess fraction %v implausibly large", rep.ExcessFrac)
	}
	if rep.ExcessTonHours > 0 && rep.ExcessEnergyKWh <= 0 {
		t.Error("excess energy not estimated")
	}
}

func TestOvercoolingErrors(t *testing.T) {
	if _, err := OvercoolingFromSource(&source.MemorySource{}); err == nil {
		t.Error("empty run data accepted")
	}
}
