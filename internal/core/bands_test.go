package core

import (
	"testing"

	"repro/internal/source"
	"repro/internal/tsagg"
)

func TestTempBandOf(t *testing.T) {
	cases := []struct {
		c    float64
		want int
	}{
		{-5, 0}, {29.9, 0}, {30, 1}, {39.9, 1}, {40, 2},
		{49.9, 2}, {50, 3}, {59.9, 3}, {60, 4}, {95, 4},
	}
	for _, c := range cases {
		if got := TempBandOf(c.c); got != c.want {
			t.Errorf("TempBandOf(%v) = %d, want %d", c.c, got, c.want)
		}
	}
}

func TestTempBandLabels(t *testing.T) {
	if TempBandLabel(0) != "<30°C" {
		t.Errorf("band 0 label = %q", TempBandLabel(0))
	}
	if TempBandLabel(4) != ">=60°C" {
		t.Errorf("band 4 label = %q", TempBandLabel(4))
	}
	if TempBandLabel(2) != "40-50°C" {
		t.Errorf("band 2 label = %q", TempBandLabel(2))
	}
}

func TestThermalBandSummary(t *testing.T) {
	d := testData(t)
	rows, err := ThermalBandsFromSource(d.Source())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != NumTempBands {
		t.Fatalf("rows = %d", len(rows))
	}
	totalGPUs := float64(d.Source().RunMeta.Nodes * 6)
	var shareSum float64
	for _, r := range rows {
		if r.MeanGPUs < 0 || r.MaxGPUs > totalGPUs {
			t.Fatalf("band %s counts out of range: %+v", r.Label, r)
		}
		shareSum += r.MeanShare
	}
	// Band shares must partition the fleet.
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Errorf("band shares sum to %v", shareSum)
	}
	// Paper §6.2: the vast majority of GPUs stay below 60 °C; the
	// cooling-efficiency claim requires the top band to be ~empty.
	if rows[4].MeanShare > 0.02 {
		t.Errorf(">=60°C band holds %.1f%% on average", rows[4].MeanShare*100)
	}
	// Per-window band counts sum to the GPU population.
	var bands [NumTempBands]*tsagg.Series
	for b := range bands {
		bands[b] = runSeries(t, d, source.GPUBandSeries(b))
	}
	for w := 0; w < bands[0].Len(); w += 97 {
		var sum float64
		for b := range bands {
			sum += bands[b].Vals[w]
		}
		if sum != totalGPUs {
			t.Fatalf("window %d band total %v != %v GPUs", w, sum, totalGPUs)
		}
	}
}
