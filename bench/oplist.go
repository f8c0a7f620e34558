package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/rng"
	"repro/internal/units"
)

// Query operation classes. The scan classes all touch per-node rows; the
// dash classes are what an operator dashboard polls.
const (
	clsRangeFleet    = "range_fleet"    // fleet-wide node-power range over one day, step 600
	clsRollupOffgrid = "rollup_offgrid" // cabinet rollup at step 1800, off the 600 s pre-aggregate grid
	clsRangeNode     = "range_node"     // one node, raw, a 6 h window
	clsRollupXday    = "rollup_xday"    // MSB rollup at step 900 straddling a day boundary
	clsClusterRange  = "cluster_range"  // cluster-power range over one day, step 60
	clsClusterRaw    = "cluster_raw"    // cluster-power raw over one hour, one of five columns
	clsRollupPreagg  = "rollup_preagg"  // aligned step-600 rollup, answered from pre-aggregates
	clsDatasets      = "datasets"
	clsEdges         = "edges"
	clsBands         = "bands"
	clsRangeCached   = "range_cached" // range_fleet again, answered from the resident table
)

var (
	scanClasses      = []string{clsRangeFleet, clsRollupOffgrid, clsRangeNode, clsRollupXday}
	dashSmallClasses = []string{clsClusterRange, clsClusterRaw, clsRollupPreagg, clsDatasets, clsEdges, clsBands}
	clusterRawCols   = []string{"sum_inp", "pue", "mtwst", "mtwrt", "gpu_core_temp_mean"}
	rollupGroups     = []string{"cabinet", "msb", "fleet"}
)

const (
	daySec        = 86400
	nodeDataset   = "node-power"
	clusterData   = "cluster-power"
	nodeColumn    = "input_power.mean"
	archiveStepS  = 10 // the archive's window, seconds
	preaggStepSec = 600
)

// queryOp is one request of a query workload, with what the harness needs
// to check the reply.
type queryOp struct {
	Class string
	URL   string // path and query
	// Kind is "range", "rollup" or "" (a route whose reply is only checked
	// for shape).
	Kind    string
	Dataset string
	Column  string
	Group   string
	Node    int64 // -1: every node
	T0, T1  int64
	Step    int64
}

func rangeOp(class, dataset, column string, node, t0, t1, step int64) queryOp {
	url := fmt.Sprintf("/api/v1/range?dataset=%s&column=%s&t0=%d&t1=%d", dataset, column, t0, t1)
	if node >= 0 {
		url += fmt.Sprintf("&node=%d", node)
	}
	if step > 0 {
		url += fmt.Sprintf("&step=%d", step)
	}
	return queryOp{Class: class, URL: url, Kind: "range", Dataset: dataset, Column: column,
		Node: node, T0: t0, T1: t1, Step: step}
}

func rollupOp(class, group string, t0, t1, step int64) queryOp {
	url := fmt.Sprintf("/api/v1/rollup?dataset=%s&column=%s&group=%s&t0=%d&t1=%d&step=%d",
		nodeDataset, nodeColumn, group, t0, t1, step)
	return queryOp{Class: class, URL: url, Kind: "rollup", Dataset: nodeDataset, Column: nodeColumn,
		Group: group, Node: -1, T0: t0, T1: t1, Step: step}
}

// archiveStart is the first timestamp of every summitsim archive.
func archiveStart() int64 { return repro.ScaledConfig(1, time.Hour).StartTime }

// makeOp draws one operation of the class from rs.
func makeOp(class string, rs *rng.Source, sz sizes) queryOp {
	start := archiveStart()
	day := start + int64(rs.IntN(sz.ArchiveDays))*daySec
	switch class {
	case clsRangeFleet, clsRangeCached:
		return rangeOp(class, nodeDataset, nodeColumn, -1, day, day+daySec, 600)
	case clsRollupOffgrid:
		return rollupOp(class, "cabinet", day, day+daySec, 1800)
	case clsRangeNode:
		t0 := day + int64(rs.IntN(18*6+1))*600 // a 6 h window inside the day
		return rangeOp(class, nodeDataset, nodeColumn, int64(rs.IntN(sz.ArchiveNodes)), t0, t0+6*units.SecondsPerHour, 0)
	case clsRollupXday:
		boundary := start + int64(1+rs.IntN(sz.ArchiveDays-1))*daySec
		half := int64(1+rs.IntN(12)) * 900 // 15 min to 3 h either side
		return rollupOp(class, "msb", boundary-half, boundary+half, 900)
	case clsClusterRange:
		return rangeOp(class, clusterData, "sum_inp", -1, day, day+daySec, 60)
	case clsClusterRaw:
		t0 := day + int64(rs.IntN(24))*units.SecondsPerHour
		return rangeOp(class, clusterData, clusterRawCols[rs.IntN(len(clusterRawCols))], -1, t0, t0+units.SecondsPerHour, 0)
	case clsRollupPreagg:
		return rollupOp(class, rollupGroups[rs.IntN(len(rollupGroups))], day, day+daySec, preaggStepSec)
	case clsDatasets:
		return queryOp{Class: class, URL: "/api/v1/datasets"}
	case clsEdges:
		return queryOp{Class: class, URL: "/api/v1/analysis/edges"}
	case clsBands:
		return queryOp{Class: class, URL: "/api/v1/analysis/bands"}
	}
	panic("bench: unknown op class " + class)
}

// shuffled draws counts[i] operations of classes[i] and shuffles them; the
// list depends only on the seed and the sizes.
func shuffled(rs *rng.Source, sz sizes, classes []string, counts []int) []queryOp {
	var ops []queryOp
	for i, class := range classes {
		for k := 0; k < counts[i]; k++ {
			ops = append(ops, makeOp(class, rs, sz))
		}
	}
	out := make([]queryOp, len(ops))
	for i, j := range rs.Perm(len(ops)) {
		out[i] = ops[j]
	}
	return out
}

// evenCounts splits n into len(classes) near-equal parts, earlier classes
// taking the remainder.
func evenCounts(n, classes int) []int {
	counts := make([]int, classes)
	for i := range counts {
		counts[i] = n / classes
		if i < n%classes {
			counts[i]++
		}
	}
	return counts
}

// scanOps is the query-scan operation list: ScanOpsPerRep operations drawn
// evenly from the four scan classes.
func scanOps(seed uint64, sz sizes) []queryOp {
	rs := rng.New(seed).Split(wScan)
	return shuffled(rs, sz, scanClasses, evenCounts(sz.ScanOpsPerRep, len(scanClasses)))
}

// dashOps is the query-dash operation list: nine in ten operations are the
// six small classes in equal parts, one in ten is the cached fleet scan.
func dashOps(seed uint64, sz sizes) []queryOp {
	rs := rng.New(seed).Split(wDash)
	cached := sz.DashOpsPerRep / 10
	classes := append(append([]string(nil), dashSmallClasses...), clsRangeCached)
	counts := append(evenCounts(sz.DashOpsPerRep-cached, len(dashSmallClasses)), cached)
	return shuffled(rs, sz, classes, counts)
}

// warmOps touches every cacheable day three times, so the doorkeeper has
// admitted what it will admit before the first timed operation: first
// touch streams, second materializes and admits, third hits.
func warmOps(workload string, sz sizes) []queryOp {
	start := archiveStart()
	var ops []queryOp
	for touch := 0; touch < 3; touch++ {
		for d := 0; d < sz.ArchiveDays; d++ {
			day := start + int64(d)*daySec
			ops = append(ops, rangeOp(clsRangeFleet, nodeDataset, nodeColumn, -1, day, day+daySec, 600))
			if workload == wDash {
				ops = append(ops,
					rangeOp(clsClusterRange, clusterData, "sum_inp", -1, day, day+daySec, 60),
					rollupOp(clsRollupPreagg, "cabinet", day, day+daySec, preaggStepSec))
			}
		}
		if workload == wDash {
			ops = append(ops,
				queryOp{Class: clsEdges, URL: "/api/v1/analysis/edges"},
				queryOp{Class: clsBands, URL: "/api/v1/analysis/bands"})
		}
	}
	return ops
}
