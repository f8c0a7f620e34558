// Quickstart: simulate a small Summit-like system for two hours and print
// the cluster power envelope, PUE, and job summary — the minimal end-to-end
// use of the public API.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/source"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	// A 128-node system over 2 hours; everything is deterministic in the
	// seed, so this program always prints the same numbers.
	cfg := repro.ScaledConfig(128, 2*time.Hour)
	data, result, err := core.CollectRun(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The run is served by series name, as an archived run would be.
	src := data.Source()
	clusterPower, err := src.Series(source.SeriesClusterPower)
	if err != nil {
		log.Fatal(err)
	}
	pueSeries, err := src.Series(source.SeriesPUE)
	if err != nil {
		log.Fatal(err)
	}
	power := clusterPower.Stats()
	fmt.Printf("simulated %d windows on %d nodes\n", result.Steps, cfg.Nodes)
	fmt.Printf("jobs placed:        %d\n", len(result.Allocations))
	fmt.Printf("cluster power:      min %.1f kW  mean %.1f kW  max %.1f kW\n",
		power.Min/units.WattsPerKW, power.Mean()/units.WattsPerKW, power.Max/units.WattsPerKW)
	fmt.Printf("energy consumed:    %.1f kWh\n", clusterPower.Integrate()/units.JoulesPerKWh)

	pue := pueSeries.Stats()
	fmt.Printf("PUE:                mean %.3f (min %.3f, max %.3f)\n",
		pue.Mean(), pue.Min, pue.Max)

	// Job-level records: who used the most energy?
	recs, err := src.JobRecords()
	if err != nil {
		log.Fatal(err)
	}
	var biggest struct {
		id     int64
		energy float64
		nodes  int
	}
	for _, r := range recs {
		if r.EnergyJ > biggest.energy {
			biggest.id, biggest.energy, biggest.nodes = r.AllocationID, r.EnergyJ, r.Nodes
		}
	}
	if biggest.id != 0 {
		fmt.Printf("biggest job:        #%d on %d nodes, %.1f kWh\n",
			biggest.id, biggest.nodes, biggest.energy/units.JoulesPerKWh)
	}
	fmt.Printf("GPU XID failures:   %d injected\n", len(result.Failures))
}
