// Package nodesim models the thermal behaviour of one AC922 compute node:
// first-order RC thermal dynamics for every CPU and GPU, manufacturing
// variation between chips, and the serial cold-plate water path in which
// each CPU's three GPUs receive progressively warmer ("second-hand") water.
//
// The paper's reliability analysis (§6) depends on exactly these features:
// component temperatures that tightly follow power within seconds,
// a 15.8 °C spread across chips at near-identical power, and the cooling
// order within the node.
package nodesim

import (
	"math"

	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// Thermal model constants. Resistances are junction-to-coolant in °C/W;
// time constants are seconds.
const (
	gpuRth     = 0.080 // V100 cold plate
	gpuMemRth  = 0.055 // HBM2 runs cooler than the core
	cpuRth     = 0.130 // P9 cold plate
	gpuTau     = 25.0
	cpuTau     = 40.0
	rthJitter  = 0.18 // relative manufacturing spread of Rth
	tauJitter  = 0.15
	flowJitter = 0.10
	// nodeFlow is the per-node water flow in GPM through the cold plates.
	nodeFlow = 3.0
	// perCPULoopFlow: the node's flow splits across the two CPU loops.
	perCPULoopFlow = nodeFlow / 2
)

// Variation holds one node's manufacturing and installation variation,
// drawn once at construction and fixed for the node's life.
type Variation struct {
	GPURth  [units.GPUsPerNode]float64
	GPUTau  [units.GPUsPerNode]float64
	CPURth  [units.CPUsPerNode]float64
	CPUTau  [units.CPUsPerNode]float64
	FlowGPM float64
	// SupplyOffsetC models the node's local water-supply offset from the
	// cabinet inlet (hose lengths, rear-door position).
	SupplyOffsetC float64
}

// NewVariation draws a node's variation from the given stream.
func NewVariation(rs *rng.Source) Variation {
	var v Variation
	for g := range v.GPURth {
		v.GPURth[g] = gpuRth * rs.TruncNormal(1, rthJitter, 0.6, 1.6)
		v.GPUTau[g] = gpuTau * rs.TruncNormal(1, tauJitter, 0.6, 1.5)
	}
	for c := range v.CPURth {
		v.CPURth[c] = cpuRth * rs.TruncNormal(1, rthJitter, 0.6, 1.6)
		v.CPUTau[c] = cpuTau * rs.TruncNormal(1, tauJitter, 0.6, 1.5)
	}
	v.FlowGPM = nodeFlow * rs.TruncNormal(1, flowJitter, 0.7, 1.3)
	v.SupplyOffsetC = rs.TruncNormal(0, 0.4, -1.2, 1.2)
	return v
}

// State is one node's thermal state. Construct with NewState and advance
// with Step; read temperatures with the accessors.
type State struct {
	v       Variation
	gpuCore [units.GPUsPerNode]float64 // °C
	gpuMem  [units.GPUsPerNode]float64
	cpu     [units.CPUsPerNode]float64
}

// NewState returns a node initialized to thermal equilibrium at idle with
// the given supply temperature.
func NewState(v Variation, supplyC units.Celsius) *State {
	s := &State{v: v}
	// Settle instantly to idle equilibrium.
	s.step(math.Inf(1), workload.IdleNodePower(), supplyC)
	return s
}

// Step advances the node's thermal state by dt seconds under the given
// component power and cabinet water supply temperature.
func (s *State) Step(dt float64, p workload.NodePower, supplyC units.Celsius) {
	if dt <= 0 {
		return
	}
	s.step(dt, p, supplyC)
}

func (s *State) step(dt float64, p workload.NodePower, supplyC units.Celsius) {
	inlet := float64(supplyC) + s.v.SupplyOffsetC
	loopFlow := units.GPM(s.v.FlowGPM / 2)
	for cpu := 0; cpu < units.CPUsPerNode; cpu++ {
		water := inlet
		// CPU cold plate first.
		cpuP := float64(p.CPU[cpu])
		eq := water + s.v.CPURth[cpu]*cpuP
		s.cpu[cpu] = relax(s.cpu[cpu], eq, dt, s.v.CPUTau[cpu])
		water += float64(units.WaterHeatPickup(units.Watts(cpuP), loopFlow))
		// Then the three GPUs in slot order.
		for _, g := range topology.CoolingOrder(topology.CPUSocket(cpu)) {
			gp := float64(p.GPU[g])
			eqCore := water + s.v.GPURth[g]*gp
			eqMem := water + gpuMemRth*gp
			s.gpuCore[g] = relax(s.gpuCore[g], eqCore, dt, s.v.GPUTau[g])
			s.gpuMem[g] = relax(s.gpuMem[g], eqMem, dt, s.v.GPUTau[g]*1.3)
			water += float64(units.WaterHeatPickup(units.Watts(gp), loopFlow))
		}
	}
}

// relax moves cur toward eq with first-order dynamics.
func relax(cur, eq, dt, tau float64) float64 {
	if math.IsInf(dt, 1) || tau <= 0 {
		return eq
	}
	return eq + (cur-eq)*math.Exp(-dt/tau)
}

// GPUCoreTemp returns GPU slot g's core temperature.
func (s *State) GPUCoreTemp(g topology.GPUSlot) units.Celsius {
	return units.Celsius(s.gpuCore[g])
}

// GPUMemTemp returns GPU slot g's HBM2 temperature.
func (s *State) GPUMemTemp(g topology.GPUSlot) units.Celsius {
	return units.Celsius(s.gpuMem[g])
}

// CPUTemp returns CPU socket c's temperature.
func (s *State) CPUTemp(c topology.CPUSocket) units.Celsius {
	return units.Celsius(s.cpu[c])
}
