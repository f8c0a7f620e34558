package nodesim

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

const supply = units.Celsius(21.1) // 70°F

func fullLoad() workload.NodePower {
	var p workload.NodePower
	for g := range p.GPU {
		p.GPU[g] = units.GPUTDP
	}
	for c := range p.CPU {
		p.CPU[c] = 190
	}
	p.Other = 200
	return p
}

func neutralVariation() Variation {
	var v Variation
	for g := range v.GPURth {
		v.GPURth[g] = gpuRth
		v.GPUTau[g] = gpuTau
	}
	for c := range v.CPURth {
		v.CPURth[c] = cpuRth
		v.CPUTau[c] = cpuTau
	}
	v.FlowGPM = nodeFlow
	return v
}

func TestIdleEquilibrium(t *testing.T) {
	s := NewState(neutralVariation(), supply)
	// Idle GPU: 45 W × 0.08 = 3.6 °C over its local water.
	got := float64(s.GPUCoreTemp(0))
	if got < float64(supply)+3 || got > float64(supply)+8 {
		t.Errorf("idle GPU0 temp = %v, want a few °C above supply %v", got, supply)
	}
	if ct := s.CPUTemp(0); ct <= supply {
		t.Errorf("idle CPU0 temp %v must exceed supply %v", ct, supply)
	}
}

func TestLoadedTemperaturesRealistic(t *testing.T) {
	s := NewState(neutralVariation(), supply)
	for i := 0; i < 600; i++ {
		s.Step(1, fullLoad(), supply)
	}
	// Paper: vast majority of GPUs stay below 60 °C even at peak.
	for g := topology.GPUSlot(0); g < units.GPUsPerNode; g++ {
		temp := float64(s.GPUCoreTemp(g))
		if temp < 40 || temp > 60 {
			t.Errorf("loaded GPU%d core = %.1f°C, want 40-60", g, temp)
		}
		if mem := float64(s.GPUMemTemp(g)); mem >= temp {
			t.Errorf("GPU%d mem %.1f must run cooler than core %.1f", g, mem, temp)
		}
	}
	for c := topology.CPUSocket(0); c < units.CPUsPerNode; c++ {
		temp := float64(s.CPUTemp(c))
		if temp < 40 || temp > 65 {
			t.Errorf("loaded CPU%d = %.1f°C, want 40-65", c, temp)
		}
	}
}

func TestSecondHandCoolingOrder(t *testing.T) {
	// With identical chips, GPUs later in the water path must run warmer.
	s := NewState(neutralVariation(), supply)
	for i := 0; i < 600; i++ {
		s.Step(1, fullLoad(), supply)
	}
	for cpu := topology.CPUSocket(0); cpu < units.CPUsPerNode; cpu++ {
		order := topology.CoolingOrder(cpu)
		for i := 1; i < len(order); i++ {
			a := s.GPUCoreTemp(order[i-1])
			b := s.GPUCoreTemp(order[i])
			if b <= a {
				t.Errorf("loop %d: GPU%d (%.2f) not warmer than upstream GPU%d (%.2f)",
					cpu, order[i], float64(b), order[i-1], float64(a))
			}
		}
	}
}

func TestThermalResponseTimescale(t *testing.T) {
	// Paper §6.2: temperature follows power "in a matter of seconds".
	// After a step load, the GPU must cover >60% of its rise within one
	// time constant and >95% within 120 s.
	s := NewState(neutralVariation(), supply)
	start := float64(s.GPUCoreTemp(0))
	for i := 0; i < int(gpuTau); i++ {
		s.Step(1, fullLoad(), supply)
	}
	atTau := float64(s.GPUCoreTemp(0))
	for i := 0; i < 600; i++ {
		s.Step(1, fullLoad(), supply)
	}
	final := float64(s.GPUCoreTemp(0))
	frac := (atTau - start) / (final - start)
	if frac < 0.55 || frac > 0.75 {
		t.Errorf("rise fraction at tau = %v, want ≈0.63", frac)
	}
}

func TestStepDtHandling(t *testing.T) {
	s := NewState(neutralVariation(), supply)
	before := s.GPUCoreTemp(0)
	s.Step(0, fullLoad(), supply) // no time: no change
	if s.GPUCoreTemp(0) != before {
		t.Error("dt=0 changed state")
	}
	s.Step(-5, fullLoad(), supply)
	if s.GPUCoreTemp(0) != before {
		t.Error("negative dt changed state")
	}
}

func TestVariationSpread(t *testing.T) {
	// Across many nodes at identical power, the core-temperature spread
	// must be of the order the paper reports (~15.8 °C non-outlier spread
	// across 27k GPUs). With ±18% Rth jitter on ~20 °C of rise plus
	// supply offsets, expect a 8-20 °C full spread over 600 GPUs.
	root := rng.New(11)
	var temps []float64
	for n := 0; n < 100; n++ {
		v := NewVariation(root.SplitN("node", n))
		s := NewState(v, supply)
		for i := 0; i < 400; i++ {
			s.Step(1, fullLoad(), supply)
		}
		for g := topology.GPUSlot(0); g < units.GPUsPerNode; g++ {
			temps = append(temps, float64(s.GPUCoreTemp(g)))
		}
	}
	lo, hi := temps[0], temps[0]
	for _, x := range temps {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	spread := hi - lo
	if spread < 6 || spread > 25 {
		t.Errorf("GPU temp spread at fixed power = %.1f°C, want 6-25", spread)
	}
}

func TestVariationDeterministic(t *testing.T) {
	a := NewVariation(rng.New(5))
	b := NewVariation(rng.New(5))
	if a != b {
		t.Error("variation not deterministic")
	}
}

func TestSupplyTemperatureTracksThrough(t *testing.T) {
	// Warmer supply shifts equilibrium temperatures up ~1:1.
	s1 := NewState(neutralVariation(), 20)
	s2 := NewState(neutralVariation(), 25)
	for i := 0; i < 400; i++ {
		s1.Step(1, fullLoad(), 20)
		s2.Step(1, fullLoad(), 25)
	}
	d := float64(s2.GPUCoreTemp(0)) - float64(s1.GPUCoreTemp(0))
	if math.Abs(d-5) > 0.5 {
		t.Errorf("supply delta propagated as %v, want ≈5", d)
	}
}

func BenchmarkNodeStep(b *testing.B) {
	s := NewState(neutralVariation(), supply)
	p := fullLoad()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(1, p, supply)
	}
}
