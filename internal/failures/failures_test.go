package failures

import (
	"math"
	"testing"

	"repro/internal/topology"
)

func TestTypeMetadata(t *testing.T) {
	if int(NumTypes) != 16 {
		t.Fatalf("NumTypes = %d, want 16 (Table 4)", NumTypes)
	}
	total := 0
	for typ := Type(0); typ < NumTypes; typ++ {
		if typ.String() == "Unknown XID" {
			t.Errorf("type %d has no name", typ)
		}
		c := typ.PaperCount()
		if c <= 0 {
			t.Errorf("%v paper count = %d", typ, c)
		}
		total += c
	}
	// Paper: 251,859 GPU errors in 2020.
	if total != 251859 {
		t.Errorf("Table 4 total = %d, want 251859", total)
	}
	if Type(-1).String() != "Unknown XID" || Type(99).PaperCount() != 0 {
		t.Error("out-of-range type handling broken")
	}
}

func TestTypeClassification(t *testing.T) {
	// Figure 14-(b) hardware subset.
	hw := []Type{NVLinkError, PageRetirementEvent, PageRetirementFailure,
		DoubleBitError, FallenOffBus}
	for _, typ := range hw {
		if !typ.Hardware() {
			t.Errorf("%v must be hardware", typ)
		}
	}
	if MemoryPageFault.Hardware() {
		t.Error("memory page fault is not hardware")
	}
	if !MemoryPageFault.AppAssociated() || DoubleBitError.AppAssociated() {
		t.Error("app-association flags wrong")
	}
}

func TestMemoryPageFaultDominates(t *testing.T) {
	// Table 4: memory page faults are ~74 % of all errors.
	if frac := float64(MemoryPageFault.PaperCount()) / 251859; frac < 0.7 {
		t.Errorf("memory page fault fraction = %v", frac)
	}
}

func activeCtx(temp, z float64) Context {
	return Context{JobID: 7, Project: "MAT01", Active: true, TempC: temp, TempZ: z}
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := DefaultConfig(3, 16)
	a, b := NewInjector(cfg), NewInjector(cfg)
	for i := 0; i < 50; i++ {
		ea := a.SampleInto(nil, int64(i*10), 10, topology.NodeID(i%16), topology.GPUSlot(i%6), activeCtx(40, 0))
		eb := b.SampleInto(nil, int64(i*10), 10, topology.NodeID(i%16), topology.GPUSlot(i%6), activeCtx(40, 0))
		if len(ea) != len(eb) {
			t.Fatalf("event counts diverged at step %d", i)
		}
		for j := range ea {
			if ea[j].Type != eb[j].Type || ea[j].Time != eb[j].Time {
				t.Fatalf("events diverged at step %d", i)
			}
		}
	}
}

func TestInjectorRateScaleAndComposition(t *testing.T) {
	cfg := DefaultConfig(11, 64)
	cfg.RateScale = 20000 // accelerate to get counts quickly
	cfg.MissingTempFrac = 0
	in := NewInjector(cfg)
	counts := map[Type]int{}
	total := 0
	for step := 0; step < 2000; step++ {
		node := topology.NodeID(step % 64)
		slot := topology.GPUSlot(step % 6)
		for _, e := range in.SampleInto(nil, int64(step*10), 10, node, slot, activeCtx(42, 0)) {
			counts[e.Type]++
			total++
			if e.Node != node || e.Slot != slot || e.JobID != 7 {
				t.Fatal("event context wrong")
			}
		}
	}
	if total < 500 {
		t.Fatalf("only %d events with RateScale 20000", total)
	}
	// Memory page faults must dominate as in Table 4.
	if counts[MemoryPageFault] < total/3 {
		t.Errorf("memory page faults = %d of %d, expected dominant",
			counts[MemoryPageFault], total)
	}
	// Cascade check: with double-bit errors present, page retirement
	// events should appear at comparable-or-higher counts than
	// the raw DBE base rate alone would produce.
	if counts[DoubleBitError] > 0 && counts[PageRetirementEvent] == 0 {
		t.Error("DBE occurred but no page retirement events at all")
	}
}

func TestInjectorIdleVsActive(t *testing.T) {
	cfg := DefaultConfig(5, 8)
	cfg.RateScale = 3000
	cfg.SuperOffenderNVLink = -1
	in := NewInjector(cfg)
	active, idle := 0, 0
	for step := 0; step < 3000; step++ {
		node := topology.NodeID(step % 8)
		active += len(in.SampleInto(nil, int64(step), 10, node, 0, activeCtx(40, 0)))
		idle += len(in.SampleInto(nil, int64(step), 10, node, 0, Context{TempC: 25, TempZ: 0}))
	}
	if active < idle*3 {
		t.Errorf("active (%d) must far exceed idle (%d) failures", active, idle)
	}
}

func TestSuperOffenderConcentration(t *testing.T) {
	cfg := DefaultConfig(7, 32)
	// The NVLink fleet base rate carries only the non-offender share, so
	// this test needs a large acceleration to accumulate offender events.
	cfg.RateScale = 100000
	cfg.MissingTempFrac = 0
	in := NewInjector(cfg)
	offender := topology.NodeID(cfg.SuperOffenderNVLink)
	nvlinkTotal, nvlinkOffender := 0, 0
	for step := 0; step < 8000; step++ {
		node := topology.NodeID(step % 32)
		for _, e := range in.SampleInto(nil, int64(step*10), 10, node, topology.GPUSlot(step%6), activeCtx(40, 0)) {
			if e.Type == NVLinkError {
				nvlinkTotal++
				if e.Node == offender {
					nvlinkOffender++
				}
			}
		}
	}
	if nvlinkTotal == 0 {
		t.Fatal("no NVLink errors generated")
	}
	if frac := float64(nvlinkOffender) / float64(nvlinkTotal); frac < 0.85 {
		t.Errorf("super-offender fraction = %v, want >= 0.85 (paper: 96.9%%)", frac)
	}
}

func TestThermalSkewDirection(t *testing.T) {
	// Double-bit errors must be likelier on colder-than-peers GPUs.
	cfg := DefaultConfig(13, 4)
	cfg.RateScale = 100000
	cfg.SuperOffenderNVLink = -1
	cfg.MissingTempFrac = 0
	in := NewInjector(cfg)
	cold, hot := 0, 0
	for step := 0; step < 5000; step++ {
		node := topology.NodeID(step % 4)
		for _, e := range in.SampleInto(nil, int64(step*10), 10, node, 4, activeCtx(35, -2)) {
			if e.Type == DoubleBitError {
				cold++
			}
		}
		for _, e := range in.SampleInto(nil, int64(step*10), 10, node, 4, activeCtx(45, 2)) {
			if e.Type == DoubleBitError {
				hot++
			}
		}
	}
	if cold <= hot {
		t.Errorf("DBE cold=%d must exceed hot=%d (right-skewed z)", cold, hot)
	}
}

func TestAbsoluteTempCap(t *testing.T) {
	// Double-bit errors above 47 °C are strongly suppressed (paper max
	// observed: 46.1 °C).
	cfg := DefaultConfig(17, 4)
	cfg.RateScale = 100000
	cfg.SuperOffenderNVLink = -1
	cfg.MissingTempFrac = 0
	in := NewInjector(cfg)
	below, above := 0, 0
	for step := 0; step < 5000; step++ {
		node := topology.NodeID(step % 4)
		for _, e := range in.SampleInto(nil, int64(step*10), 10, node, 4, activeCtx(44, 0)) {
			if e.Type == DoubleBitError {
				below++
			}
		}
		for _, e := range in.SampleInto(nil, int64(step*10), 10, node, 4, activeCtx(58, 0)) {
			if e.Type == DoubleBitError {
				above++
			}
		}
	}
	if below == 0 {
		t.Fatal("no DBEs below the cap")
	}
	if float64(above) > 0.05*float64(below) {
		t.Errorf("DBEs above cap = %d vs below = %d; cap not enforced", above, below)
	}
}

func TestMissingTempFraction(t *testing.T) {
	cfg := DefaultConfig(19, 4)
	cfg.RateScale = 20000
	cfg.MissingTempFrac = 0.5
	in := NewInjector(cfg)
	missing, total := 0, 0
	for step := 0; step < 3000; step++ {
		for _, e := range in.SampleInto(nil, int64(step*10), 10, topology.NodeID(step%4), 0, activeCtx(40, 0)) {
			total++
			if !e.HasTemp() {
				missing++
				if !math.IsNaN(e.TempZ) {
					t.Fatal("missing temp must also clear z")
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no events")
	}
	frac := float64(missing) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("missing-temp fraction = %v, want ≈0.5", frac)
	}
}

func TestSampleEdgeCases(t *testing.T) {
	in := NewInjector(DefaultConfig(1, 4))
	if got := in.SampleInto(nil, 0, 0, 0, 0, Context{}); got != nil {
		t.Error("zero window must yield nil")
	}
	if got := in.SampleInto(nil, 0, -10, 0, 0, Context{}); got != nil {
		t.Error("negative window must yield nil")
	}
	if got := in.SampleInto(nil, 0, 10, 99, 0, Context{}); got != nil {
		t.Error("out-of-range node must yield nil")
	}
}

func TestProjectMultiplierMemoized(t *testing.T) {
	in := NewInjector(DefaultConfig(1, 4))
	a := in.ProjectMultiplier("MAT01")
	b := in.ProjectMultiplier("MAT01")
	if a != b {
		t.Error("project multiplier not memoized")
	}
	if in.ProjectMultiplier("") != 1 {
		t.Error("empty project must be neutral")
	}
}

func BenchmarkSample(b *testing.B) {
	cfg := DefaultConfig(1, 128)
	in := NewInjector(cfg)
	ctx := activeCtx(42, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = in.SampleInto(nil, int64(i*10), 10, topology.NodeID(i%128), topology.GPUSlot(i%6), ctx)
	}
}
