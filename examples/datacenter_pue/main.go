// Data-center cross-cut: drive the same scaled system through a winter
// week and a summer week and compare cooling behaviour — economizer vs trim
// chillers, PUE, and MTW loop temperatures (the paper's Figure 5/12 story).
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/source"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	const nodes = 128
	span := 24 * time.Hour

	type season struct {
		name  string
		start int64 // unix
	}
	seasons := []season{
		{"winter (mid-January)", 1_577_836_800 + 14*86400},
		{"summer (mid-July)", 1_577_836_800 + 196*86400},
	}
	for _, s := range seasons {
		cfg := repro.ScaledConfig(nodes, span)
		cfg.StartTime = s.start
		data, _, err := core.CollectRun(cfg)
		if err != nil {
			log.Fatal(err)
		}
		trend, err := core.Figure5Trends(data.Source())
		if err != nil {
			log.Fatal(err)
		}
		stat := func(name string) stats.Moments {
			series, err := data.Source().Series(name)
			if err != nil {
				log.Fatal(err)
			}
			return series.Stats()
		}
		wet, supply, ret := stat(source.SeriesWetBulbC), stat(source.SeriesSupplyC), stat(source.SeriesReturnC)
		tower, chiller := stat(source.SeriesTowerTons), stat(source.SeriesChillerTons)
		fmt.Printf("%s\n", s.name)
		fmt.Printf("  wet bulb:      %.1f°C mean (%.1f–%.1f)\n", wet.Mean(), wet.Min, wet.Max)
		fmt.Printf("  MTW supply:    %.1f°C mean   return: %.1f°C mean\n", supply.Mean(), ret.Mean())
		fmt.Printf("  cooling:       towers %.1f tons mean, chillers %.1f tons mean\n",
			tower.Mean(), chiller.Mean())
		fmt.Printf("  chilled water: %.1f%% of windows\n", trend.ChillerFrac*100)
		fmt.Printf("  PUE:           %.3f mean", trend.MeanPUE)
		if trend.SummerPUE > 0 {
			fmt.Printf(" (%.3f while on chilled water)", trend.SummerPUE)
		}
		fmt.Println()
		fmt.Println()
	}
	fmt.Println("paper reference: PUE 1.11 annual average, 1.22 in summer;")
	fmt.Println("chilled water needed ~20% of the year, mostly in the humid summer.")
}
