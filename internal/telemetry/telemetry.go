// Package telemetry is the wire of Summit's out-of-band collection path
// (paper §2, Figure 3): the per-node metric catalogue the BMCs emit at
// 1 Hz, the Sample they push, the length-prefixed frame codec, and the TCP
// Server and Exporter that carry frames from the emitters to the live
// plane. The 288:1 fan-in tier itself is streamd's feed, which dials one
// Exporter per 288 nodes.
//
// The collection is out-of-band: nothing here back-pressures the compute
// simulation, mirroring the real system's no-application-impact property.
package telemetry

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/units"
)

// Metric identifies one per-node telemetry channel.
type Metric uint16

// Per-node metrics. The real nodes expose ~100 channels; the reproduction
// carries the ones the paper's analyses consume and treats the remainder as
// a count multiplier for throughput accounting.
const (
	MetricInputPower Metric = iota // node AC input power
	MetricP0Power                  // CPU0 socket power
	MetricP1Power
	MetricGPU0Power
	MetricGPU1Power
	MetricGPU2Power
	MetricGPU3Power
	MetricGPU4Power
	MetricGPU5Power
	MetricGPU0CoreTemp
	MetricGPU1CoreTemp
	MetricGPU2CoreTemp
	MetricGPU3CoreTemp
	MetricGPU4CoreTemp
	MetricGPU5CoreTemp
	MetricGPU0MemTemp
	MetricGPU1MemTemp
	MetricGPU2MemTemp
	MetricGPU3MemTemp
	MetricGPU4MemTemp
	MetricGPU5MemTemp
	MetricP0Temp
	MetricP1Temp
	NumMetrics // sentinel
)

var metricNames = [...]string{
	"input_power", "p0_power", "p1_power",
	"gpu0_power", "gpu1_power", "gpu2_power",
	"gpu3_power", "gpu4_power", "gpu5_power",
	"gpu0_core_temp", "gpu1_core_temp", "gpu2_core_temp",
	"gpu3_core_temp", "gpu4_core_temp", "gpu5_core_temp",
	"gpu0_mem_temp", "gpu1_mem_temp", "gpu2_mem_temp",
	"gpu3_mem_temp", "gpu4_mem_temp", "gpu5_mem_temp",
	"p0_temp", "p1_temp",
}

func (m Metric) String() string {
	if int(m) >= len(metricNames) {
		return fmt.Sprintf("metric%d", int(m))
	}
	return metricNames[m]
}

// GPUPowerMetric returns the power metric of GPU slot g.
func GPUPowerMetric(g topology.GPUSlot) Metric { return MetricGPU0Power + Metric(g) }

// GPUCoreTempMetric returns the core-temperature metric of GPU slot g.
func GPUCoreTempMetric(g topology.GPUSlot) Metric { return MetricGPU0CoreTemp + Metric(g) }

// GPUMemTempMetric returns the memory-temperature metric of GPU slot g.
func GPUMemTempMetric(g topology.GPUSlot) Metric { return MetricGPU0MemTemp + Metric(g) }

// CPUPowerMetric returns the power metric of CPU socket c.
func CPUPowerMetric(c topology.CPUSocket) Metric { return MetricP0Power + Metric(c) }

// CPUTempMetric returns the temperature metric of CPU socket c.
func CPUTempMetric(c topology.CPUSocket) Metric { return MetricP0Temp + Metric(c) }

// Sample is one emitted observation.
type Sample struct {
	Node   topology.NodeID
	Metric Metric
	T      int64 // sample time on the node, unix seconds
	Value  float64
}

// IngestRate estimates the steady-state metrics/second a system of the
// given size produces (the paper quotes 460k metrics/s for Summit).
func IngestRate(nodes int) float64 {
	return float64(nodes) * float64(units.MetricsPerNode) / float64(units.TelemetrySampleIntervalSec)
}
