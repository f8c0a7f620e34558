package nodesim

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// testPower builds a deterministic, node-varying component power draw.
func testPower(i, step int) workload.NodePower {
	var p workload.NodePower
	for g := range p.GPU {
		p.GPU[g] = units.Watts(45 + float64((i*7+g*31+step*13)%260))
	}
	for c := range p.CPU {
		p.CPU[c] = units.Watts(60 + float64((i*11+c*17+step*5)%130))
	}
	p.Other = units.Watts(150 + float64((i+step)%60))
	return p
}

// TestFleetMatchesStateBitwise pins the SoA hot path to the reference
// pointer-based State model: for identical variations, powers, supplies
// and step length, every temperature must agree to the last bit — the
// precomputed decay factors and pickup denominators are exact
// reformulations, not approximations.
func TestFleetMatchesStateBitwise(t *testing.T) {
	const n, steps = 9, 50
	const stepSec = 10.0
	rs := rng.New(42)
	vars := make([]Variation, n)
	states := make([]*State, n)
	supply := units.Celsius(17.5)
	for i := range vars {
		vars[i] = NewVariation(rs.SplitN("node", i))
		states[i] = NewState(vars[i], supply)
	}
	fleet := NewFleet(vars, stepSec, supply)

	check := func(step int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for g := 0; g < units.GPUsPerNode; g++ {
				want := float64(states[i].GPUCoreTemp(topology.GPUSlot(g)))
				got := fleet.GPUCoreTemp(i, g)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d node %d gpu %d core: fleet %v != state %v", step, i, g, got, want)
				}
				wantM := float64(states[i].GPUMemTemp(topology.GPUSlot(g)))
				gotM := fleet.GPUMemTemp(i, g)
				if math.Float64bits(gotM) != math.Float64bits(wantM) {
					t.Fatalf("step %d node %d gpu %d mem: fleet %v != state %v", step, i, g, gotM, wantM)
				}
			}
			for c := 0; c < units.CPUsPerNode; c++ {
				want := float64(states[i].CPUTemp(topology.CPUSocket(c)))
				got := fleet.CPUTemp(i, c)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d node %d cpu %d: fleet %v != state %v", step, i, c, got, want)
				}
			}
		}
	}
	// Initial settle must agree (NewState and NewFleet both settle).
	check(-1)
	for step := 0; step < steps; step++ {
		sup := units.Celsius(17.5 + 2*math.Sin(float64(step)/7))
		for i := 0; i < n; i++ {
			p := testPower(i, step)
			states[i].Step(stepSec, p, sup)
			fleet.StepNode(i, &p, sup)
		}
		check(step)
	}
}

func TestFleetAccessorsShape(t *testing.T) {
	rs := rng.New(1)
	vars := []Variation{NewVariation(rs.SplitN("node", 0))}
	f := NewFleet(vars, 10, 18)
	if f.n != 1 {
		t.Fatalf("n = %d", f.n)
	}
	if f.stepSec != 10 {
		t.Fatalf("stepSec = %v", f.stepSec)
	}
	// Idle equilibrium temperatures must be physical.
	for g := 0; g < units.GPUsPerNode; g++ {
		if temp := f.GPUCoreTemp(0, g); temp < 15 || temp > 40 {
			t.Errorf("idle GPU %d core temp %v implausible", g, temp)
		}
	}
	for c := 0; c < units.CPUsPerNode; c++ {
		if temp := f.CPUTemp(0, c); temp < 15 || temp > 40 {
			t.Errorf("idle CPU %d temp %v implausible", c, temp)
		}
	}
}
