// Archive & analyze: the offline half of the pipeline. Simulate a span,
// archive every dataset to disk in the compressed columnar format, then —
// as a separate analysis pass — restore the archives and run the paper's
// analyses on the restored data, verifying the round trip end to end.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "summit-archive-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Collection pass: simulate and archive. ---
	cfg := repro.ScaledConfig(96, 4*time.Hour)
	data, res, err := core.CollectRun(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.WriteDatasets(dir, data); err != nil {
		log.Fatal(err)
	}
	var total int64
	for _, name := range source.RunDatasets(false) {
		ds, err := store.NewDataset(dir, name)
		if err != nil {
			log.Fatal(err)
		}
		size, err := ds.SizeOnDisk()
		if err != nil {
			log.Fatal(err)
		}
		total += size
	}
	fmt.Printf("archived %d windows, %d jobs, %d failures in %.1f KiB\n",
		res.Steps, len(res.Allocations), len(res.Failures), float64(total)/1024)

	// --- Analysis pass: restore and analyze without the live run. ---
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	power, err := src.Series(source.SeriesClusterPower)
	if err != nil {
		log.Fatal(err)
	}
	m := power.Stats()
	fmt.Printf("restored cluster power: %d windows, mean %.1f kW, max %.1f kW\n",
		m.N, m.Mean()/units.WattsPerKW, m.Max/units.WattsPerKW)

	edges := core.DetectEdgesThreshold(power, core.ScaleEquivalentMW(cfg.Nodes))
	fmt.Printf("scale-equivalent-MW edges on restored series: %d\n", len(edges))

	evs, err := src.Failures()
	if err != nil {
		log.Fatal(err)
	}
	comp, err := core.Table4Composition(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored failure log: %d events, %d types; top: %s (%d)\n",
		len(evs), len(comp), comp[0].Type, comp[0].Count)

	windows, err := src.JobPower()
	if err != nil {
		log.Fatal(err)
	}
	perJob := map[int64]int{}
	var longest int64
	for _, w := range windows {
		if perJob[w.AllocationID]++; perJob[w.AllocationID] > perJob[longest] {
			longest = w.AllocationID
		}
	}
	fmt.Printf("restored %d job series; longest job %d spans %d windows\n",
		len(perJob), longest, perJob[longest])
	dyn, err := core.Figure10Dynamics(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored Figure 10: %.1f%% of %d jobs without edges\n", dyn.FracNoEdges*100, len(dyn.PerJob))
	fmt.Println("archive → restore → analyze round trip complete")
}
