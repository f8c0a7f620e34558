// GPU reliability: run the failure-injection model at accelerated rates
// and reproduce the paper's §6 analyses — Table 4 composition, failure
// co-occurrence (Figure 13), per-project rates (Figure 14), thermal
// extremity (Figure 15) and placement effects (Figure 16).
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	cfg := repro.ScaledConfig(96, 6*time.Hour)
	cfg.Seed = 11
	data, result, err := core.CollectRun(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected %d XID events over %d windows\n\n", len(result.Failures), result.Steps)

	src := data.Source()

	// Table 4: composition by type.
	comp, err := core.Table4Composition(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("failure composition (Table 4 shape):")
	for _, row := range comp {
		fmt.Printf("  %-34s %6d   worst node holds %5.1f%%\n",
			row.Type.String(), row.Count, row.MaxPerNodeFrac*100)
	}

	// Figure 13: co-occurrence.
	cells, err := core.Figure13Correlation(src, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBonferroni-significant co-occurrences (α=0.05): %d pairs\n", len(cells))
	for i, c := range cells {
		if i == 6 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  r=%+.2f  %s ↔ %s\n", c.R, c.A, c.B)
	}

	// Figure 14: which projects burn GPUs fastest?
	fmt.Println("\ntop-5 projects by failures per node-hour:")
	rates, err := core.Figure14FailuresPerProject(src, false, 5)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range rates {
		fmt.Printf("  %-8s %6d failures over %8.0f node-hours  → %.4f/nh\n",
			p.Project, p.Total, p.NodeHours, p.PerNodeHour)
	}

	// Figure 15: thermal extremity — are failures hot or cold events?
	tes, err := core.Figure15ThermalExtremity(src, 0.8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nthermal extremity by type (z-score skew; positive = colder-than-peers failures):")
	for _, te := range tes {
		fmt.Printf("  %-34s n=%5d  z-skew %+.2f  max temp %.1f°C\n",
			te.Type.String(), te.N, te.ZSkew, te.MaxTempC)
	}

	// Figure 16: placement.
	placement, err := core.Figure16Placement(src, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfailures by GPU slot (highlighted types):")
	for _, p := range placement {
		fmt.Printf("  %-34s %v\n", p.Type.String(), p.Counts)
	}
}
