package telemetry

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

func TestMetricNames(t *testing.T) {
	if NumMetrics != Metric(len(metricNames)) {
		t.Fatal("metric name table out of sync")
	}
	if MetricInputPower.String() != "input_power" {
		t.Error("metric stringer broken")
	}
	if Metric(200).String() != "metric200" {
		t.Error("out-of-range metric stringer broken")
	}
}

func TestMetricHelpers(t *testing.T) {
	for g := topology.GPUSlot(0); g < 6; g++ {
		if GPUPowerMetric(g) != MetricGPU0Power+Metric(g) {
			t.Errorf("GPU power metric %d wrong", g)
		}
		if GPUCoreTempMetric(g) != MetricGPU0CoreTemp+Metric(g) {
			t.Errorf("GPU core temp metric %d wrong", g)
		}
		if GPUMemTempMetric(g) != MetricGPU0MemTemp+Metric(g) {
			t.Errorf("GPU mem temp metric %d wrong", g)
		}
	}
	if CPUPowerMetric(1) != MetricP1Power || CPUTempMetric(1) != MetricP1Temp {
		t.Error("CPU metric helpers wrong")
	}
}

func TestIngestRate(t *testing.T) {
	// Paper: ~460k metrics/s from 4,626 nodes at ~100 metrics each.
	r := IngestRate(units.SummitNodes)
	if r < 400e3 || r > 500e3 {
		t.Errorf("ingest rate = %v, want ≈462k", r)
	}
}
