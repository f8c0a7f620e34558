// Power dynamics: reproduce the paper's §4.2 analysis on a scaled system —
// detect rising/falling power edges on the cluster and per job, measure
// edge durations, and characterize the dominant swing frequency with an
// FFT (Figures 10 and 11 in miniature).
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	// A longer span with more jobs raises the odds of large synchronous
	// swings from leadership-style allocations.
	cfg := repro.ScaledConfig(192, 8*time.Hour)
	cfg.Seed = 7
	data, _, err := core.CollectRun(cfg)
	if err != nil {
		log.Fatal(err)
	}

	dyn, err := core.Figure10Dynamics(data.Source())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jobs analyzed:        %d\n", len(dyn.PerJob))
	fmt.Printf("jobs with no edges:   %.1f%%  (paper: 96.9%%)\n", dyn.FracNoEdges*100)

	// Per-class edge behaviour: which class swings most?
	for class := units.Class1; class <= units.Class5; class++ {
		cdf, ok := dyn.EdgeCountCDF[class]
		if !ok {
			continue
		}
		durMed := 0.0
		if d, ok := dyn.DurationCDF[class]; ok {
			durMed = d.Quantile(0.5)
		}
		fmt.Printf("  %v: %d jobs with edges, median %.0f edges, median duration %.1f min\n",
			class, cdf.N(), cdf.Quantile(0.5), durMed)
	}

	// Dominant swing frequencies: the paper finds ~0.005 Hz (200 s
	// periods) across classes.
	for class, freqs := range dyn.Freqs {
		if len(freqs) == 0 {
			continue
		}
		mean := 0.0
		for _, f := range freqs {
			mean += f
		}
		mean /= float64(len(freqs))
		fmt.Printf("  %v: mean dominant frequency %.4f Hz (period %.0f s)\n",
			class, mean, 1/mean)
	}

	// Cluster-level edges with superimposed snapshots (Figure 11).
	sets, err := core.Figure11EdgeSnapshots(data.Source(), 60, 240)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncluster edge threshold: %.2f MW\n", float64(cfg.Nodes)*868/units.WattsPerMW)
	for _, s := range sets {
		// Power at the aligned edge offset vs one minute before.
		var before, at float64
		for i, off := range s.Power.OffsetSec {
			switch off {
			case -60:
				before = s.Power.Mean[i]
			case 0:
				at = s.Power.Mean[i]
			}
		}
		fmt.Printf("  %d MW bin: %d rising edges, power %.2f → %.2f MW across the edge\n",
			s.AmplitudeMW, s.Count, before/units.WattsPerMW, at/units.WattsPerMW)
	}
	if len(sets) == 0 {
		fmt.Println("  (no >=1 MW cluster edges this run — try a different seed)")
	}
}
