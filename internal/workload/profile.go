// Package workload models the HPC applications that drive Summit's power
// dynamics: science domains, application power-profile archetypes with the
// phase-synchronous swings the paper characterizes (§4.2), and a job-stream
// generator calibrated to the Table 3 scheduling classes.
package workload

import (
	"math"

	"repro/internal/rng"
	"repro/internal/units"
)

// Domain is a DOE Office of Science discipline (paper Figure 8).
type Domain int

// Science domains appearing in the paper's per-domain breakdowns.
const (
	Astrophysics Domain = iota
	Biology
	Chemistry
	ClimateScience
	ComputerScience
	Engineering
	FusionEnergy
	Geoscience
	HighEnergyPhysics
	Materials
	NuclearPhysics
	MachineLearning
	NumDomains // sentinel
)

var domainNames = [...]string{
	"Astrophysics", "Biology", "Chemistry", "ClimateScience",
	"ComputerScience", "Engineering", "FusionEnergy", "Geoscience",
	"HighEnergyPhysics", "Materials", "NuclearPhysics", "MachineLearning",
}

func (d Domain) String() string {
	if d < 0 || int(d) >= len(domainNames) {
		return "UnknownDomain"
	}
	return domainNames[d]
}

// Profile is an application power-profile archetype: how a job converts
// allocated hardware into component power over time. It is the "fingerprint"
// of the paper's future-work section, made explicit.
type Profile struct {
	// GPUUtil and CPUUtil are mean utilizations (0..1) during the compute
	// phase; they set the high-power plateau for each component kind.
	GPUUtil float64
	CPUUtil float64
	// PeriodSec is the phase-alternation period of the application's
	// synchronous structure. The paper finds ~200 s dominant.
	PeriodSec float64
	// Duty is the fraction of each period spent in the high-power phase.
	Duty float64
	// SwingFrac is the relative depth of the low phase: 0 means flat,
	// 1 means the low phase falls to idle. Only jobs with deep swings
	// produce the rising/falling edges of §4.2.
	SwingFrac float64
	// RampSec is the startup ramp from idle to the first compute phase.
	RampSec float64
	// NoiseFrac is the relative high-frequency noise on component power.
	NoiseFrac float64
}

// Component idle draws. GPU idle on a V100 is ~45 W; a P9 socket idles
// around 60 W; the remainder of the node (memory, fans, NVMe, HCA, PSU
// losses) idles near 150 W, rising with load.
const (
	gpuIdle   = 45.0
	cpuIdle   = 60.0
	otherIdle = 150.0
	// otherPerLoad is the extra "other" power per watt of compute power
	// (fans, VRM and PSU conversion losses).
	otherPerLoad = 0.06
)

// Activity returns the phase activity level in [0, 1] at dt seconds into
// the job: 1 during the compute plateau, 1-SwingFrac during the low phase,
// ramping at the start.
func (p Profile) Activity(dt float64) float64 {
	if dt < 0 {
		return 0
	}
	level := 1.0
	phase := math.Mod(dt, p.PeriodSec) / p.PeriodSec
	if phase >= p.Duty {
		level = 1 - p.SwingFrac
	}
	if p.RampSec > 0 && dt < p.RampSec {
		level *= dt / p.RampSec
	}
	return level
}

// NodePower is the instantaneous per-component power of one node.
type NodePower struct {
	CPU   [units.CPUsPerNode]units.Watts
	GPU   [units.GPUsPerNode]units.Watts
	Other units.Watts
}

// Total returns the node input power, capped at the node's supply limit.
func (n NodePower) Total() units.Watts {
	t := n.Other
	for _, c := range n.CPU {
		t += c
	}
	for _, g := range n.GPU {
		t += g
	}
	if t > units.NodeMaxPower {
		t = units.NodeMaxPower
	}
	return t
}

// hash64 mixes two integers into a well-distributed 64-bit value
// (splitmix64 finalizer), the basis of the deterministic pseudo-noise.
func hash64(a, b uint64) uint64 {
	return rng.Mix64(a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019)
}

// unitNoise returns a deterministic pseudo-random value in [-1, 1) keyed by
// (key, slot, tick). Using a pure function keeps power evaluation
// random-access: any (node, time) can be evaluated without replaying a
// stream, which the simulator exploits for parallelism.
func unitNoise(key uint64, slot, tick int64) float64 {
	h := hash64(key, hash64(uint64(slot), uint64(tick)))
	return float64(int64(h>>11))/float64(1<<52) - 1
}

// SampleBase is the node-independent part of one power sample: the noise
// tick and the pre-noise per-component wattages that every node of a wide
// allocation shares at the same instant into the job. The simulator
// evaluates it once per (job, sample-offset) and fans it out to the K nodes
// of the allocation, which then apply only their per-node noise
// (PowerFromBase) — the dominant per-sample saving for large jobs.
type SampleBase struct {
	Tick int64   // deterministic noise tick, int64(dt)
	GPUW float64 // pre-noise per-GPU watts at this instant
	CPUW float64 // pre-noise per-CPU-socket watts at this instant
}

// BaseAt returns the shared sample base at dt seconds after job start.
//
//lint:allocfree
func (p Profile) BaseAt(dt float64) SampleBase {
	act := p.Activity(dt)
	cpuAct := 0.35 + 0.65*act
	return SampleBase{
		Tick: int64(dt),
		GPUW: gpuIdle + p.GPUUtil*act*(float64(units.GPUTDP)-gpuIdle),
		CPUW: cpuIdle + p.CPUUtil*cpuAct*(float64(units.CPUTDP)-cpuIdle),
	}
}

// PowerFromBase applies node nodeIdx's deterministic noise and the
// per-component clamps to a shared sample base. Power(key, n, dt) is by
// construction bit-identical to PowerFromBase(BaseAt(dt), key, n).
//
//lint:allocfree
func (p Profile) PowerFromBase(b SampleBase, key uint64, nodeIdx int) NodePower {
	var np NodePower
	var compute float64
	for g := 0; g < units.GPUsPerNode; g++ {
		slot := int64(nodeIdx)*16 + int64(g)
		noise := 1 + p.NoiseFrac*unitNoise(key, slot, b.Tick)
		w := b.GPUW * noise
		if w < 0 {
			w = 0
		}
		if w > float64(units.GPUTDP)*1.05 {
			w = float64(units.GPUTDP) * 1.05
		}
		np.GPU[g] = units.Watts(w)
		compute += w
	}
	for c := 0; c < units.CPUsPerNode; c++ {
		slot := int64(nodeIdx)*16 + 8 + int64(c)
		noise := 1 + p.NoiseFrac*unitNoise(key, slot, b.Tick)
		w := b.CPUW * noise
		if w < 0 {
			w = 0
		}
		if w > float64(units.CPUTDP)*1.05 {
			w = float64(units.CPUTDP) * 1.05
		}
		np.CPU[c] = units.Watts(w)
		compute += w
	}
	np.Other = units.Watts(otherIdle + otherPerLoad*compute)
	return np
}

// Power evaluates the per-component power of node nodeIdx of a job with
// this profile at dt seconds after job start. key individualizes noise per
// job (use the allocation ID). The model:
//
//   - GPUs draw idle + util·activity·(TDP−idle), with per-GPU noise;
//   - CPUs draw idle + util·(0.35 + 0.65·activity)·(TDP−idle) — CPUs retain
//     load during GPU-idle phases (data staging, MPI), which reproduces the
//     paper's observation that CPU temperature/power stays comparatively
//     flat through edges while GPUs swing;
//   - Other scales with total compute power.
func (p Profile) Power(key uint64, nodeIdx int, dt float64) NodePower {
	return p.PowerFromBase(p.BaseAt(dt), key, nodeIdx)
}

// IdleNodePower returns the power of an unallocated node.
func IdleNodePower() NodePower {
	var np NodePower
	for g := range np.GPU {
		np.GPU[g] = gpuIdle
	}
	for c := range np.CPU {
		np.CPU[c] = cpuIdle
	}
	np.Other = otherIdle
	return np
}

// MeanPowerProfile returns a flat (swing-free) profile whose steady-state
// mean node power matches the target wattage as closely as the component
// model allows. Trace replay uses it for jobs that carry only a mean-power
// hint: the per-node power at full activity is linear in a shared
// utilization u, so the hint inverts in closed form and is clamped to the
// node's physical envelope [fully idle, all components at TDP].
func MeanPowerProfile(target units.Watts) Profile {
	// total(u) with GPUUtil = CPUUtil = u, activity 1 (flat plateau):
	//   gpu(u)   = GPUsPerNode · (gpuIdle + u·(GPUTDP − gpuIdle))
	//   cpu(u)   = CPUsPerNode · (cpuIdle + u·(CPUTDP − cpuIdle))
	//   other(u) = otherIdle + otherPerLoad·(gpu(u) + cpu(u))
	floor := (1+otherPerLoad)*(units.GPUsPerNode*gpuIdle+units.CPUsPerNode*cpuIdle) + otherIdle
	slope := (1 + otherPerLoad) * (units.GPUsPerNode*(float64(units.GPUTDP)-gpuIdle) +
		units.CPUsPerNode*(float64(units.CPUTDP)-cpuIdle))
	u := (float64(target) - floor) / slope
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return Profile{
		GPUUtil: u, CPUUtil: u,
		PeriodSec: 300, Duty: 1, // flat: always in the high phase
		SwingFrac: 0, RampSec: 60, NoiseFrac: 0.04,
	}
}
