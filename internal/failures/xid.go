// Package failures models NVIDIA GPU XID errors on Summit: the sixteen
// failure types of the paper's Table 4, their wildly uneven per-node
// concentration (including the NVLink "super-offender" node), their
// co-occurrence structure (Figure 13), project-dependent rates (Figure 14),
// thermal-extremity skews (Figure 15), and placement effects (Figure 16).
package failures

import (
	"math"

	"repro/internal/topology"
)

// Type identifies an XID failure category.
type Type int

// Failure types, ordered as in the paper's Table 4.
const (
	MemoryPageFault Type = iota
	GraphicsEngineException
	StoppedProcessing
	NVLinkError
	PageRetirementEvent
	PageRetirementFailure
	DoubleBitError
	PreemptiveCleanup
	MicrocontrollerWarning
	GraphicsEngineFault
	FallenOffBus
	MicrocontrollerHalt
	DriverFirmwareError
	DriverErrorHandling
	CorruptedPushBuffer
	GraphicsEngineClassError
	NumTypes // sentinel
)

var typeNames = [...]string{
	"Memory page fault",
	"Graphics engine exception",
	"Stopped processing",
	"NVLINK error",
	"Page retirement event",
	"Page retirement failure",
	"Double-bit error",
	"Preemptive cleanup",
	"Internal microcontroller warning",
	"Graphics engine fault",
	"Fallen off the bus",
	"Internal microcontroller halt",
	"Driver firmware error",
	"Driver error handling exception",
	"Corrupted push buffer stream",
	"Graphics engine class error",
}

func (t Type) String() string {
	if t < 0 || int(t) >= len(typeNames) {
		return "Unknown XID"
	}
	return typeNames[t]
}

// PaperCount returns the 2020 occurrence count the paper reports for the
// type (Table 4) — the calibration target for full-scale runs.
func (t Type) PaperCount() int {
	counts := [...]int{186496, 32339, 22649, 8736, 851, 210, 179, 162,
		74, 44, 31, 29, 26, 21, 11, 1}
	if t < 0 || int(t) >= len(counts) {
		return 0
	}
	return counts[t]
}

// AppAssociated reports whether the type is attributable to user
// applications (above the double ruler in Table 4).
func (t Type) AppAssociated() bool {
	switch t {
	case MemoryPageFault, GraphicsEngineException, StoppedProcessing:
		return true
	}
	return false
}

// Hardware reports whether the type is in the hardware-failure subset the
// paper analyzes in Figure 14-(b).
func (t Type) Hardware() bool {
	switch t {
	case NVLinkError, PageRetirementEvent, PageRetirementFailure,
		DoubleBitError, FallenOffBus:
		return true
	}
	return false
}

// thermalSkew returns the exponent applied to the job-context temperature
// z-score: negative values make the type MORE likely on colder-than-peers
// GPUs (the right-skewed distributions of Figure 15); positive values bias
// toward hot GPUs (graphics engine faults); zero is thermally neutral.
func (t Type) thermalSkew() float64 {
	switch t {
	case DoubleBitError, FallenOffBus, MicrocontrollerWarning, PageRetirementFailure:
		return -0.45
	case GraphicsEngineFault:
		return 0.35
	case NVLinkError, PageRetirementEvent:
		return -0.15
	default:
		return 0
	}
}

// tempCapC returns an absolute-temperature cap above which the type is
// strongly suppressed. The paper reports the hottest known double-bit error
// at 46.1 °C and almost no failures above 60 °C.
func (t Type) tempCapC() float64 {
	switch t {
	case DoubleBitError:
		return 47
	case NVLinkError, FallenOffBus:
		return 75 // small tails above 60 °C exist for these two
	default:
		return 62
	}
}

// slotWeights returns per-GPU-slot relative rates (Figure 16): slot 0
// elevated by single-GPU jobs, slot 4 anomalously high for double-bit and
// page-retirement events, off-the-bus elevated on the CPU-1 loop.
func (t Type) slotWeights() [6]float64 {
	switch t {
	case DoubleBitError, PageRetirementEvent:
		return [6]float64{1.6, 0.9, 0.8, 0.9, 2.4, 0.8}
	case FallenOffBus:
		return [6]float64{1.2, 0.7, 0.7, 1.5, 1.6, 1.5}
	case MicrocontrollerWarning:
		return [6]float64{1.8, 1.0, 0.9, 0.8, 1.0, 0.7}
	default:
		return [6]float64{1.5, 1.0, 0.95, 0.9, 0.85, 0.8}
	}
}

// baseRatePerGPUHour returns the type's fleet-average rate per GPU-hour of
// allocated computation, calibrated so a full-scale year reproduces the
// Table 4 composition. (27,756 GPUs × ~65 % allocation × 8,784 h ≈ 1.6e8
// allocated GPU-hours in 2020.)
//
// NVLink is special: 96.9 % of its paper count comes from one
// "super-offender" node, which the injector models as a ~30× concentration
// multiplier on a single node. The fleet base rate therefore carries only
// the non-offender share, so fleet + offender reproduces the paper total.
func (t Type) baseRatePerGPUHour() float64 {
	const allocGPUHours = 1.6e8
	count := float64(t.PaperCount())
	if t == NVLinkError {
		count *= 1.0 / 31.0 // offender contributes the other ~30/31
	}
	return count / allocGPUHours
}

// Event is one injected XID error with the context captured at occurrence.
type Event struct {
	Time  int64
	Node  topology.NodeID
	Slot  topology.GPUSlot
	Type  Type
	JobID int64 // the allocation the GPU ran (its project is in the allocation log); 0 when none
	// TempC is the 10-second mean GPU core temperature at occurrence;
	// NaN models the paper's missing spring/summer telemetry.
	TempC float64
	// TempZ is the z-score of TempC across the job's GPUs at occurrence;
	// NaN when unavailable.
	TempZ float64
}

// HasTemp reports whether thermal context was captured.
func (e *Event) HasTemp() bool { return !math.IsNaN(e.TempC) }
