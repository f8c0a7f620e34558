package core

import (
	"math"
	"sort"

	"repro/internal/failures"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/units"
)

// FailureComposition is one row of Table 4: a failure type's total count
// and the share of the worst single node.
type FailureComposition struct {
	Type            failures.Type
	Count           int
	MaxPerNode      int
	MaxPerNodeFrac  float64 // MaxPerNode / Count
	MaxPerNodeID    int
	AppAssociated   bool
	HardwareFailure bool
}

// Table4Composition tallies the failure log by type, sorted by descending
// count as in the paper.
func Table4Composition(src source.RunSource) ([]FailureComposition, error) {
	nodes, evs, err := failureLog(src)
	if err != nil {
		return nil, err
	}
	perType := make([]int, failures.NumTypes)
	perNode := make([][]int, failures.NumTypes)
	for t := range perNode {
		perNode[t] = make([]int, nodes)
	}
	for _, e := range evs {
		if e.Type < 0 || e.Type >= failures.NumTypes || int(e.Node) >= nodes {
			continue
		}
		perType[e.Type]++
		perNode[e.Type][e.Node]++
	}
	var out []FailureComposition
	for t := failures.Type(0); t < failures.NumTypes; t++ {
		if perType[t] == 0 {
			continue
		}
		maxN, maxID := 0, 0
		for id, c := range perNode[t] {
			if c > maxN {
				maxN, maxID = c, id
			}
		}
		out = append(out, FailureComposition{
			Type:            t,
			Count:           perType[t],
			MaxPerNode:      maxN,
			MaxPerNodeFrac:  float64(maxN) / float64(perType[t]),
			MaxPerNodeID:    maxID,
			AppAssociated:   t.AppAssociated(),
			HardwareFailure: t.Hardware(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Type < out[j].Type
	})
	return out, nil
}

// failureLog reads the run's system size and failure log from src.
func failureLog(src source.RunSource) (int, []failures.Event, error) {
	meta, err := src.Meta()
	if err != nil {
		return 0, nil, err
	}
	evs, err := src.Failures()
	return meta.Nodes, evs, err
}

// CorrelationCell is one significant pair of Figure 13.
type CorrelationCell struct {
	A, B failures.Type
	R    float64
	P    float64
}

// Figure13Correlation computes the per-node count vectors for every
// failure type and the Bonferroni-corrected pairwise Pearson correlations
// at the given family-wise alpha (the paper uses 0.05). Only significant
// pairs are returned, strongest first. Types with no events are excluded
// from the family.
func Figure13Correlation(src source.RunSource, alpha float64) ([]CorrelationCell, error) {
	nodes, evs, err := failureLog(src)
	if err != nil {
		return nil, err
	}
	counts := make([][]float64, failures.NumTypes)
	seen := make([]bool, failures.NumTypes)
	for t := range counts {
		counts[t] = make([]float64, nodes)
	}
	for _, e := range evs {
		if e.Type < 0 || e.Type >= failures.NumTypes || int(e.Node) >= nodes {
			continue
		}
		counts[e.Type][e.Node]++
		seen[e.Type] = true
	}
	var vars [][]float64
	var types []failures.Type
	for t := failures.Type(0); t < failures.NumTypes; t++ {
		if seen[t] {
			vars = append(vars, counts[t])
			types = append(types, t)
		}
	}
	if len(vars) < 2 {
		return nil, nil
	}
	res, err := stats.PairwiseCorrelation(vars, alpha)
	if err != nil {
		return nil, err
	}
	var out []CorrelationCell
	for _, r := range res {
		if !r.Significant {
			continue
		}
		out = append(out, CorrelationCell{
			A: types[r.I], B: types[r.J], R: r.R, P: r.P,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].R) > math.Abs(out[j].R)
	})
	return out, nil
}

// ProjectFailureRate is one bar of Figure 14: a project's failures per
// allocated node-hour, decomposed by type.
type ProjectFailureRate struct {
	Project     string
	NodeHours   float64
	PerNodeHour float64
	ByType      map[failures.Type]int
	Total       int
}

// Figure14FailuresPerProject computes per-project failure rates normalized
// by allocated node-hours. A failure's project is its job's, joined from the
// allocation log on the allocation ID. When hardwareOnly is set, only the
// Figure 14-(b) hardware subset counts. The topN highest-rate projects are
// returned.
func Figure14FailuresPerProject(src source.RunSource, hardwareOnly bool, topN int) ([]ProjectFailureRate, error) {
	allocs, err := src.Allocations()
	if err != nil {
		return nil, err
	}
	evs, err := src.Failures()
	if err != nil {
		return nil, err
	}
	nodeHours := map[string]float64{}
	projectOf := make(map[int64]string, len(allocs))
	for i := range allocs {
		a := &allocs[i]
		nodeHours[a.Project] += float64(a.EndTime-a.BeginTime) / units.SecondsPerHour * float64(a.Nodes)
		projectOf[a.AllocationID] = a.Project
	}
	byProject := map[string]*ProjectFailureRate{}
	for _, e := range evs {
		project := projectOf[e.JobID]
		if project == "" {
			continue // no job context
		}
		if hardwareOnly && !e.Type.Hardware() {
			continue
		}
		p, ok := byProject[project]
		if !ok {
			p = &ProjectFailureRate{
				Project: project,
				ByType:  map[failures.Type]int{},
			}
			byProject[project] = p
		}
		p.ByType[e.Type]++
		p.Total++
	}
	var out []ProjectFailureRate
	for name, p := range byProject {
		p.NodeHours = nodeHours[name]
		if p.NodeHours <= 0 {
			continue
		}
		p.PerNodeHour = float64(p.Total) / p.NodeHours
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PerNodeHour != out[j].PerNodeHour {
			return out[i].PerNodeHour > out[j].PerNodeHour
		}
		return out[i].Project < out[j].Project
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out, nil
}

// ThermalExtremity is the Figure 15 content for one failure type: the
// samples of z-scores and absolute temperatures at failure, plus skewness.
type ThermalExtremity struct {
	Type     failures.Type
	N        int
	ZScores  []float64
	TempsC   []float64
	ZSkew    float64 // Pearson moment skewness of the z distribution
	MaxTempC float64
}

// Figure15ThermalExtremity collects the thermal context of failures per
// type, excluding events without temperature data and, following the
// paper, excluding the NVLink super-offender node (any node holding more
// than excludeFrac of a type's events).
func Figure15ThermalExtremity(src source.RunSource, excludeFrac float64) ([]ThermalExtremity, error) {
	evs, err := src.Failures()
	if err != nil {
		return nil, err
	}
	// Identify super-offender nodes per type.
	perTypeNode := map[failures.Type]map[int]int{}
	perTypeTotal := map[failures.Type]int{}
	for _, e := range evs {
		m, ok := perTypeNode[e.Type]
		if !ok {
			m = map[int]int{}
			perTypeNode[e.Type] = m
		}
		m[int(e.Node)]++
		perTypeTotal[e.Type]++
	}
	exclude := map[failures.Type]int{}
	for t, m := range perTypeNode {
		for node, c := range m {
			if float64(c) >= excludeFrac*float64(perTypeTotal[t]) && perTypeTotal[t] > 10 {
				exclude[t] = node
			}
		}
	}
	byType := map[failures.Type]*ThermalExtremity{}
	for _, e := range evs {
		if !e.HasTemp() || math.IsNaN(e.TempZ) {
			continue
		}
		if node, ok := exclude[e.Type]; ok && int(e.Node) == node {
			continue
		}
		te, ok := byType[e.Type]
		if !ok {
			te = &ThermalExtremity{Type: e.Type, MaxTempC: math.Inf(-1)}
			byType[e.Type] = te
		}
		te.N++
		te.ZScores = append(te.ZScores, e.TempZ)
		te.TempsC = append(te.TempsC, e.TempC)
		if e.TempC > te.MaxTempC {
			te.MaxTempC = e.TempC
		}
	}
	var out []ThermalExtremity
	for t := failures.Type(0); t < failures.NumTypes; t++ {
		te, ok := byType[t]
		if !ok || te.N < 3 {
			continue
		}
		te.ZSkew = skewness(te.ZScores)
		out = append(out, *te)
	}
	return out, nil
}

// skewness returns the Pearson moment coefficient of skewness.
func skewness(xs []float64) float64 {
	m := stats.Summarize(xs)
	sd := m.Std()
	if sd == 0 || m.N < 3 {
		return 0
	}
	mean := m.Mean()
	var s3 float64
	for _, x := range xs {
		d := (x - mean) / sd
		s3 += d * d * d
	}
	return s3 / float64(m.N)
}

// PlacementCounts is Figure 16: failure counts per GPU slot 0–5 for a type.
type PlacementCounts struct {
	Type   failures.Type
	Counts [units.GPUsPerNode]int
}

// Figure16Placement tallies per-slot counts for the four types the paper
// highlights (page retirement events, double-bit errors, microcontroller
// warnings, off-the-bus), or for all types when highlight is false.
func Figure16Placement(src source.RunSource, highlightOnly bool) ([]PlacementCounts, error) {
	evs, err := src.Failures()
	if err != nil {
		return nil, err
	}
	want := map[failures.Type]bool{
		failures.PageRetirementEvent:    true,
		failures.DoubleBitError:         true,
		failures.MicrocontrollerWarning: true,
		failures.FallenOffBus:           true,
	}
	acc := map[failures.Type]*PlacementCounts{}
	for _, e := range evs {
		if highlightOnly && !want[e.Type] {
			continue
		}
		if e.Slot < 0 || int(e.Slot) >= units.GPUsPerNode {
			continue
		}
		p, ok := acc[e.Type]
		if !ok {
			p = &PlacementCounts{Type: e.Type}
			acc[e.Type] = p
		}
		p.Counts[e.Slot]++
	}
	var out []PlacementCounts
	for t := failures.Type(0); t < failures.NumTypes; t++ {
		if p, ok := acc[t]; ok {
			out = append(out, *p)
		}
	}
	return out, nil
}
