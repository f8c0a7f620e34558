package core

import (
	"math"
	"sort"

	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// EnergyPowerKDE is one class's joint density of (log10 energy, log10 max
// power) — paper Figure 6 (the paper plots on log-log axes).
type EnergyPowerKDE struct {
	Class units.SchedulingClass
	N     int
	Grid  *stats.Grid2D
	Modes int // count of distinct high-density modes
}

// Figure6EnergyPower computes the per-class joint KDEs. Classes with fewer
// than 3 jobs are skipped.
func Figure6EnergyPower(recs []source.JobRecord, gridN int) []EnergyPowerKDE {
	if gridN < 2 {
		gridN = 40
	}
	var out []EnergyPowerKDE
	for c := units.Class1; c <= units.Class5; c++ {
		var xs, ys []float64
		for _, r := range recs {
			if r.Class != int(c) || r.EnergyJ <= 0 || r.MaxPowerW <= 0 {
				continue
			}
			xs = append(xs, math.Log10(r.EnergyJ))
			ys = append(ys, math.Log10(r.MaxPowerW))
		}
		if len(xs) < 3 {
			continue
		}
		kde, err := stats.NewKDE2D(xs, ys, 0, 0)
		if err != nil {
			continue
		}
		grid := kde.Grid(gridN, gridN)
		out = append(out, EnergyPowerKDE{
			Class: c,
			N:     len(xs),
			Grid:  grid,
			Modes: len(grid.Modes(0.25)),
		})
	}
	return out
}

// JobCDFs is the Figure 7 panel set for one class: empirical CDFs of node
// count, walltime, mean power, max power, and max-mean difference.
type JobCDFs struct {
	Class    units.SchedulingClass
	N        int
	Nodes    *stats.ECDF
	WallHrs  *stats.ECDF
	MeanMW   *stats.ECDF
	MaxMW    *stats.ECDF
	DiffMW   *stats.ECDF
	P80Nodes float64 // 80th percentiles (the red lines in the paper)
	P80Wall  float64
	P80Mean  float64
	P80Max   float64
	P80Diff  float64
}

// Figure7JobCDFs builds the CDF panels for the two leadership classes.
func Figure7JobCDFs(recs []source.JobRecord) []JobCDFs {
	var out []JobCDFs
	for _, c := range []units.SchedulingClass{units.Class1, units.Class2} {
		var nodes, wall, mean, max, diff []float64
		for _, r := range recs {
			if r.Class != int(c) {
				continue
			}
			nodes = append(nodes, float64(r.Nodes))
			wall = append(wall, float64(r.EndTime-r.BeginTime)/units.SecondsPerHour)
			mean = append(mean, r.MeanPowerW/units.WattsPerMW)
			max = append(max, r.MaxPowerW/units.WattsPerMW)
			diff = append(diff, (r.MaxPowerW-r.MeanPowerW)/units.WattsPerMW)
		}
		if len(nodes) == 0 {
			continue
		}
		j := JobCDFs{
			Class:   c,
			N:       len(nodes),
			Nodes:   stats.NewECDF(nodes),
			WallHrs: stats.NewECDF(wall),
			MeanMW:  stats.NewECDF(mean),
			MaxMW:   stats.NewECDF(max),
			DiffMW:  stats.NewECDF(diff),
		}
		j.P80Nodes = j.Nodes.Quantile(0.8)
		j.P80Wall = j.WallHrs.Quantile(0.8)
		j.P80Mean = j.MeanMW.Quantile(0.8)
		j.P80Max = j.MaxMW.Quantile(0.8)
		j.P80Diff = j.DiffMW.Quantile(0.8)
		out = append(out, j)
	}
	return out
}

// DomainBreakdown is one science domain's distribution of job max power
// and energy within a class (paper Figure 8).
type DomainBreakdown struct {
	Class    units.SchedulingClass
	Domain   workload.Domain
	N        int
	MaxPower stats.BoxPlot // W
	Energy   stats.BoxPlot // J
}

// Figure8DomainBreakdown summarizes max power and energy per domain for
// the two leadership classes, ordered by descending median max power.
func Figure8DomainBreakdown(recs []source.JobRecord) []DomainBreakdown {
	var out []DomainBreakdown
	for _, c := range []units.SchedulingClass{units.Class1, units.Class2} {
		perDomain := map[workload.Domain][]source.JobRecord{}
		for _, r := range recs {
			if r.Class == int(c) {
				perDomain[workload.Domain(r.Domain)] = append(perDomain[workload.Domain(r.Domain)], r)
			}
		}
		var rows []DomainBreakdown
		for dom, rs := range perDomain {
			var power, energy []float64
			for _, r := range rs {
				power = append(power, r.MaxPowerW)
				energy = append(energy, r.EnergyJ)
			}
			rows = append(rows, DomainBreakdown{
				Class: c, Domain: dom, N: len(rs),
				MaxPower: stats.NewBoxPlot(power),
				Energy:   stats.NewBoxPlot(energy),
			})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].MaxPower.Median != rows[j].MaxPower.Median {
				return rows[i].MaxPower.Median > rows[j].MaxPower.Median
			}
			return rows[i].Domain < rows[j].Domain
		})
		out = append(out, rows...)
	}
	return out
}

// ComponentKDE is the Figure 9 joint density of per-node CPU vs GPU power
// for a class group, for the mean and maximum views.
type ComponentKDE struct {
	Classes []units.SchedulingClass
	N       int
	Mean    *stats.Grid2D // x = CPU W, y = GPU W (means)
	Max     *stats.Grid2D // x = CPU W, y = GPU W (maxima)
}

// Figure9ComponentKDE builds the two class-group panels the paper shows:
// leadership (classes 1–2) and small (classes 3–5).
func Figure9ComponentKDE(recs []source.JobRecord, gridN int) []ComponentKDE {
	if gridN < 2 {
		gridN = 40
	}
	groups := [][]units.SchedulingClass{
		{units.Class1, units.Class2},
		{units.Class3, units.Class4, units.Class5},
	}
	var out []ComponentKDE
	for _, g := range groups {
		in := func(c units.SchedulingClass) bool {
			for _, x := range g {
				if x == c {
					return true
				}
			}
			return false
		}
		var mcpu, mgpu, xcpu, xgpu []float64
		for _, r := range recs {
			if !in(units.SchedulingClass(r.Class)) {
				continue
			}
			mcpu = append(mcpu, r.MeanCPUPowerW)
			mgpu = append(mgpu, r.MeanGPUPowerW)
			xcpu = append(xcpu, r.MaxCPUPowerW)
			xgpu = append(xgpu, r.MaxGPUPowerW)
		}
		if len(mcpu) < 3 {
			continue
		}
		meanKDE, err1 := stats.NewKDE2D(mcpu, mgpu, 0, 0)
		maxKDE, err2 := stats.NewKDE2D(xcpu, xgpu, 0, 0)
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, ComponentKDE{
			Classes: g,
			N:       len(mcpu),
			Mean:    meanKDE.Grid(gridN, gridN),
			Max:     maxKDE.Grid(gridN, gridN),
		})
	}
	return out
}

// SchedulingStats summarizes queueing behaviour per class (the Dataset C
// operational view: wait times and allocated node-hours).
type SchedulingStats struct {
	Class        units.SchedulingClass
	Jobs         int
	MeanWaitSec  float64
	P90WaitSec   float64
	NodeHours    float64
	MeanDuration float64 // seconds
}

// SchedulingByClass reduces the allocation log per class.
func SchedulingByClass(src source.RunSource) ([]SchedulingStats, error) {
	allocs, err := src.Allocations()
	if err != nil {
		return nil, err
	}
	type acc struct {
		waits  []float64
		durSum float64
		nh     float64
	}
	accs := map[units.SchedulingClass]*acc{}
	for i := range allocs {
		a := &allocs[i]
		c := units.SchedulingClass(a.Class)
		x, ok := accs[c]
		if !ok {
			x = &acc{}
			accs[c] = x
		}
		x.waits = append(x.waits, float64(a.BeginTime-a.SubmitTime))
		x.durSum += float64(a.EndTime - a.BeginTime)
		x.nh += float64(a.EndTime-a.BeginTime) / units.SecondsPerHour * float64(a.Nodes)
	}
	var out []SchedulingStats
	for c := units.Class1; c <= units.Class5; c++ {
		x, ok := accs[c]
		if !ok {
			continue
		}
		out = append(out, SchedulingStats{
			Class:        c,
			Jobs:         len(x.waits),
			MeanWaitSec:  stats.Mean(x.waits),
			P90WaitSec:   stats.Quantile(x.waits, 0.9),
			NodeHours:    x.nh,
			MeanDuration: x.durSum / float64(len(x.waits)),
		})
	}
	return out, nil
}
