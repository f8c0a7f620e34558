package query

import (
	"context"
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/topology"
)

// GroupBy selects the fleet grouping of a rollup.
type GroupBy string

// Groupings.
const (
	GroupCabinet GroupBy = "cabinet" // one series per cabinet
	GroupMSB     GroupBy = "msb"     // one series per main switchboard
	GroupFleet   GroupBy = "fleet"   // one series over every node
)

// RollupRequest aggregates one per-node column across the floor topology:
// every sample of every node in a group, bucketed into Step-second windows.
type RollupRequest struct {
	Dataset string
	Column  string
	Group   GroupBy
	T0, T1  int64
	Step    int64 // window size in seconds; must be > 0
	// Limit > 0 is the most windows (summed over groups) the caller will
	// take; see RangeRequest.Limit.
	Limit int
}

// RollupWindow is one aggregated window of one group: the summary of every
// (node, sample) observation that fell into it.
type RollupWindow struct {
	T     int64
	Count int64
	Min   float64
	Max   float64
	Mean  float64
	Sum   float64
}

// GroupSeries is the rollup of one group.
type GroupSeries struct {
	Group   int // cabinet index, MSB index, or 0 for fleet
	Label   string
	Windows []RollupWindow
}

// RollupResult is a rollup query's answer, one series per non-empty group.
type RollupResult struct {
	Dataset string
	Column  string
	Group   GroupBy
	T0, T1  int64
	Step    int64
	Series  []GroupSeries
	Stats   QueryStats
}

// Rollup executes a fleet rollup: per-cabinet or per-MSB aggregation of a
// per-node dataset column over aligned windows, on the floor the archive's
// run-meta records.
func (e *Engine) Rollup(ctx context.Context, req RollupRequest) (*RollupResult, error) {
	start := time.Now()
	e.met.RollupQueries.Add(1)
	res, err := e.rollup(ctx, req)
	e.met.ScanLatency.Observe(time.Since(start))
	if err != nil {
		e.met.Errors.Add(1)
		return nil, err
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

func (e *Engine) rollup(ctx context.Context, req RollupRequest) (*RollupResult, error) {
	if err := validateRange(req.T0, req.T1, req.Step); err != nil {
		return nil, err
	}
	if req.Step <= 0 {
		return nil, fmt.Errorf("query: rollup needs a positive step: %w", ErrBadRequest)
	}
	if req.Column == "" {
		return nil, fmt.Errorf("query: missing column: %w", ErrBadRequest)
	}
	switch req.Group {
	case GroupCabinet, GroupMSB, GroupFleet:
	default:
		return nil, fmt.Errorf("query: unknown rollup group %q: %w", req.Group, ErrBadRequest)
	}
	x, err := e.index(req.Dataset)
	if err != nil {
		return nil, err
	}
	days, pruned, err := x.Prune(req.T0, req.T1)
	if err != nil {
		return nil, err
	}
	res := &RollupResult{
		Dataset: req.Dataset, Column: req.Column, Group: req.Group,
		T0: req.T0, T1: req.T1, Step: req.Step,
	}
	e.bookDays(&res.Stats, len(x.Days()), len(days), pruned)
	spec := scanSpec{ds: x.Dataset(), column: req.Column, nodeUse: "rollup", readNodes: req.Group != GroupFleet}
	g, cells, err := e.fold(ctx, x, days, req, -1, spec, &res.Stats)
	if err != nil {
		return nil, err
	}
	res.Series = buildSeries(g, cells, req.Group)
	return res, nil
}

// buildSeries renders the dense accumulators as per-group series: groups
// and windows ascending, empty ones skipped.
func buildSeries(g grid, cells []stats.Moments, group GroupBy) []GroupSeries {
	var out []GroupSeries
	for gi := 0; gi*g.n < len(cells); gi++ {
		var ws []RollupWindow
		for i := range cells[gi*g.n : (gi+1)*g.n] {
			if m := &cells[gi*g.n+i]; m.N > 0 {
				if ws == nil {
					ws = make([]RollupWindow, 0, g.n-i)
				}
				ws = append(ws, RollupWindow{
					T: g.w0 + int64(i)*g.step, Count: m.N,
					Min: m.Min, Max: m.Max, Mean: m.Mean(), Sum: m.Sum(),
				})
			}
		}
		if ws != nil {
			out = append(out, GroupSeries{Group: gi, Label: groupLabel(group, gi), Windows: ws})
		}
	}
	return out
}

func groupLabel(group GroupBy, g int) string {
	switch group {
	case GroupCabinet:
		return fmt.Sprintf("cab%03d", g)
	case GroupMSB:
		return topology.MSB(g).String()
	default:
		return "fleet"
	}
}
