package nodesim

import (
	"math"

	"repro/internal/units"
	"repro/internal/workload"
)

// Fleet holds the thermal state of every node of a run in
// structure-of-arrays form: one flat float64 slice per quantity, indexed by
// dense node ID (×GPUsPerNode or ×CPUsPerNode for per-component arrays).
// It replaces the []*State pointer-chasing layout in the simulation hot
// loop — stepping node i touches a handful of contiguous cache lines
// instead of a heap-scattered State object.
//
// Fleet is constructed for one fixed step length and precomputes, per
// component, the first-order decay factor exp(-dt/τ) and the water-loop
// heat-pickup denominators, eliminating the per-step math.Exp and flow
// conversions that dominate State.Step. StepNode is bit-identical to
// State.Step for the same Variation, power, supply, and dt: the precomputed
// factors are the exact float64 values State computes inline.
//
// StepNode(i, ...) may be called concurrently for distinct i: all shared
// arrays are written only at index i's span.
type Fleet struct {
	n       int
	stepSec float64

	// Manufacturing variation, flattened from Variation.
	gpuRth       []float64 // n×GPUsPerNode, °C/W core
	cpuRth       []float64 // n×CPUsPerNode
	supplyOffset []float64 // n, local water-supply offset °C

	// Precomputed heat-pickup denominators: W / denom = °C rise.
	loopDenom []float64 // n, per-CPU-loop flow (FlowGPM/2)

	// Precomputed decay factors exp(-stepSec/τ) per component.
	gpuDecay    []float64 // n×GPUsPerNode, core
	gpuMemDecay []float64 // n×GPUsPerNode, HBM2 (τ×1.3)
	cpuDecay    []float64 // n×CPUsPerNode

	// Thermal state, °C.
	gpuCore []float64 // n×GPUsPerNode
	gpuMem  []float64 // n×GPUsPerNode
	cpu     []float64 // n×CPUsPerNode
}

// NewFleet builds the fleet state for the given per-node variations, a
// fixed step of stepSec seconds, and settles every node to idle thermal
// equilibrium at the given supply temperature (as NewState does).
func NewFleet(vars []Variation, stepSec float64, supplyC units.Celsius) *Fleet {
	n := len(vars)
	f := &Fleet{
		n:            n,
		stepSec:      stepSec,
		gpuRth:       make([]float64, n*units.GPUsPerNode),
		cpuRth:       make([]float64, n*units.CPUsPerNode),
		supplyOffset: make([]float64, n),
		loopDenom:    make([]float64, n),
		gpuDecay:     make([]float64, n*units.GPUsPerNode),
		gpuMemDecay:  make([]float64, n*units.GPUsPerNode),
		cpuDecay:     make([]float64, n*units.CPUsPerNode),
		gpuCore:      make([]float64, n*units.GPUsPerNode),
		gpuMem:       make([]float64, n*units.GPUsPerNode),
		cpu:          make([]float64, n*units.CPUsPerNode),
	}
	for i, v := range vars {
		for g := 0; g < units.GPUsPerNode; g++ {
			f.gpuRth[i*units.GPUsPerNode+g] = v.GPURth[g]
			f.gpuDecay[i*units.GPUsPerNode+g] = decayFactor(stepSec, v.GPUTau[g])
			f.gpuMemDecay[i*units.GPUsPerNode+g] = decayFactor(stepSec, v.GPUTau[g]*1.3)
		}
		for c := 0; c < units.CPUsPerNode; c++ {
			f.cpuRth[i*units.CPUsPerNode+c] = v.CPURth[c]
			f.cpuDecay[i*units.CPUsPerNode+c] = decayFactor(stepSec, v.CPUTau[c])
		}
		f.supplyOffset[i] = v.SupplyOffsetC
		f.loopDenom[i] = pickupDenom(units.GPM(v.FlowGPM / 2))
	}
	idle := workload.IdleNodePower()
	for i := 0; i < n; i++ {
		f.settle(i, &idle, supplyC)
	}
	return f
}

// decayFactor is the exact per-step relaxation multiplier State.Step
// computes inline: math.Exp(-dt/τ), or 0 (jump to equilibrium) for a
// non-positive time constant.
func decayFactor(dt, tau float64) float64 {
	if tau <= 0 {
		return 0
	}
	return math.Exp(-dt / tau)
}

// pickupDenom is the denominator of units.WaterHeatPickup for the given
// flow, computed with the same operations so load/denom matches it bitwise.
func pickupDenom(flow units.GPM) float64 {
	if flow <= 0 {
		return math.Inf(1) // pickup 0, matching WaterHeatPickup's guard
	}
	massFlowKgPerSec := float64(flow) * units.WaterKgPerGallon / 60.0
	return massFlowKgPerSec * units.WaterHeatCapacityJPerKgK
}

// StepNode advances node i's thermal state by the fleet's fixed step under
// the given component power and cabinet water supply temperature.
//
//lint:allocfree
func (f *Fleet) StepNode(i int, p *workload.NodePower, supplyC units.Celsius) {
	gbase, cbase := i*units.GPUsPerNode, i*units.CPUsPerNode
	f.step(i, p, supplyC,
		f.gpuDecay[gbase:gbase+units.GPUsPerNode],
		f.gpuMemDecay[gbase:gbase+units.GPUsPerNode],
		f.cpuDecay[cbase:cbase+units.CPUsPerNode])
}

// settle jumps node i to thermal equilibrium (decay 0 ⇒ temp = eq), the
// dt=+Inf branch of State.step.
func (f *Fleet) settle(i int, p *workload.NodePower, supplyC units.Celsius) {
	f.step(i, p, supplyC, zeroDecay[:], zeroDecay[:], zeroDecay[:units.CPUsPerNode])
}

// zeroDecay backs settle's all-zero decay windows.
var zeroDecay [units.GPUsPerNode]float64

// step advances node i with the given per-node decay windows, each indexed
// by component position within the node (slot for GPUs, socket for CPUs).
func (f *Fleet) step(i int, p *workload.NodePower, supplyC units.Celsius,
	gpuDecay, gpuMemDecay, cpuDecay []float64) {
	gbase, cbase := i*units.GPUsPerNode, i*units.CPUsPerNode
	inlet := float64(supplyC) + f.supplyOffset[i]
	loopDenom := f.loopDenom[i]
	for cpu := 0; cpu < units.CPUsPerNode; cpu++ {
		water := inlet
		// CPU cold plate first.
		cpuP := float64(p.CPU[cpu])
		eq := water + f.cpuRth[cbase+cpu]*cpuP
		f.cpu[cbase+cpu] = relaxDecay(f.cpu[cbase+cpu], eq, cpuDecay[cpu])
		water += cpuP / loopDenom
		// Then the three GPUs of this socket's loop in slot order
		// (second-hand water, topology.CoolingOrder).
		for g := cpu * gpusPerLoop; g < (cpu+1)*gpusPerLoop; g++ {
			gp := float64(p.GPU[g])
			eqCore := water + f.gpuRth[gbase+g]*gp
			eqMem := water + gpuMemRth*gp
			f.gpuCore[gbase+g] = relaxDecay(f.gpuCore[gbase+g], eqCore, gpuDecay[g])
			f.gpuMem[gbase+g] = relaxDecay(f.gpuMem[gbase+g], eqMem, gpuMemDecay[g])
			water += gp / loopDenom
		}
	}
}

// gpusPerLoop is the number of GPUs on each CPU socket's water loop.
const gpusPerLoop = units.GPUsPerNode / units.CPUsPerNode

// relaxDecay moves cur toward eq with the precomputed per-step decay.
func relaxDecay(cur, eq, decay float64) float64 {
	return eq + (cur-eq)*decay
}

// GPUCoreTemp returns node i GPU slot g's core temperature.
func (f *Fleet) GPUCoreTemp(i, g int) float64 { return f.gpuCore[i*units.GPUsPerNode+g] }

// GPUMemTemp returns node i GPU slot g's HBM2 temperature.
func (f *Fleet) GPUMemTemp(i, g int) float64 { return f.gpuMem[i*units.GPUsPerNode+g] }

// CPUTemp returns node i CPU socket c's temperature.
func (f *Fleet) CPUTemp(i, c int) float64 { return f.cpu[i*units.CPUsPerNode+c] }
