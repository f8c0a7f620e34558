package query

import (
	"context"
	"errors"

	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tsagg"
)

// preaggRollup tries to answer a rollup — or the fleet-wide range that is
// GroupFleet under another reply shape (see fold) — from the persisted
// pre-aggregates: the companion partition the collector appends to each
// per-node partition in its file (store.Dataset.Companion), so a day and its
// companion are always one write. It applies only when the requested window
// matches the persisted aggregation grid, the range boundaries cannot split
// a window, and no window's rows lie in two partitions (windowsInOrder):
// then every needed accumulator exists verbatim in exactly one companion,
// and the answer is bit-identical to a full scan — the companion stores the
// exact Welford state the scan path would have computed, in the same fold
// order. The accumulators land in cells, the dense [group][window] table the
// scan would have filled; days are the partitions the range keeps, whose
// companions hold every window the range overlaps. Returns ok=false (with no
// error) whenever one of them has no answerable companion — none at all, as
// in a day written without a floor or an archive with the earlier separate
// ".rollup" files, or one without the column — leaving the scan to run
// (cells may then be partly written).
func (e *Engine) preaggRollup(ctx context.Context, x *store.Index, days []store.DayMeta, req RollupRequest, g grid, cells []stats.Moments, qs *QueryStats) (bool, error) {
	if req.Step != source.RollupStepSec || !windowsInOrder(days, req.Step) {
		return false, nil
	}
	metas, err := x.Metas()
	if err != nil {
		return false, err
	}
	// A range boundary inside a window would need a partial re-aggregation
	// the companion cannot provide. Aligned bounds are safe, as are bounds
	// beyond the data's time span (every populated window is then whole).
	minT, maxT, hasTime := store.Span(metas)
	if tsagg.FloorMod(req.T0, req.Step) != 0 && !(hasTime && req.T0 <= minT) {
		return false, nil
	}
	if tsagg.FloorMod(req.T1, req.Step) != 0 && !(hasTime && req.T1 > maxT) {
		return false, nil
	}
	var wantKind int64
	switch req.Group {
	case GroupCabinet:
		wantKind = source.RollupKindCabinet
	case GroupMSB:
		wantKind = source.RollupKindMSB
	default:
		wantKind = source.RollupKindFleet
	}
	colN, colMin, colMax, colMean, colM2 := source.RollupStatCols(req.Column)
	need := []string{
		source.RollupColWindow, source.RollupColKind,
		source.RollupColGroup, source.RollupColStep,
		colN, colMin, colMax, colMean, colM2,
	}
	rx := x.Dataset().Companion(source.RollupDatasetName(req.Dataset))
	var rows, hits, misses int64
	for _, m := range days {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		// Companions are small and every aligned rollup wants them: admit on
		// first touch, no doorkeeper.
		tab, hit, err := rx.ReadDayColumnsCached(e.src.Cache(), m.Day, nil)
		if errors.Is(err, store.ErrNoCompanion) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if hit {
			hits++
			e.met.CacheHits.Add(1)
		} else {
			misses++
			e.met.CacheMisses.Add(1)
			e.met.BytesDecoded.Add(store.TableBytes(tab))
		}
		var cols [9]*store.Column
		for i, name := range need {
			if cols[i] = tab.Col(name); cols[i] == nil {
				return false, nil // the companion predates the column
			}
		}
		window, kind, group, step := cols[0].Ints, cols[1].Ints, cols[2].Ints, cols[3].Ints
		nC, minC, maxC := cols[4].Ints, cols[5].Floats, cols[6].Floats
		meanC, m2C := cols[7].Floats, cols[8].Floats
		for i, w := range window {
			if kind[i] != wantKind || w+req.Step <= req.T0 || w >= req.T1 {
				continue
			}
			if step[i] != req.Step {
				return false, nil // foreign aggregation grid: let the scan answer
			}
			wi := (w - g.w0) / g.step
			if w < g.w0 || wi >= int64(g.n) || group[i] < 0 || group[i]*int64(g.n) >= int64(len(cells)) {
				return false, nil // companion disagrees with the base partitions or the floor
			}
			cells[int(group[i])*g.n+int(wi)].Merge(stats.MomentsFromState(nC[i], minC[i], maxC[i], meanC[i], m2C[i]))
			rows++
		}
	}
	qs.RowsScanned, qs.CacheHits, qs.CacheMisses, qs.Preagg = rows, hits, misses, true
	e.met.PreaggQueries.Add(1)
	e.met.RowsScanned.Add(rows)
	return true, nil
}

// windowsInOrder reports that each step-window's rows lie in one partition
// of days: every partition opens in a later window than its predecessor
// closed in. Merging the accumulators of two companion rows is not the
// serial fold, bit for bit, so a window split over two partitions has to be
// scanned. Within a partition the reducer folds each window's rows in file
// order, as the scan does, so an unsorted partition is no obstacle.
func windowsInOrder(days []store.DayMeta, step int64) bool {
	for i, m := range days {
		if !m.HasTime {
			return false
		}
		if i > 0 {
			prev := days[i-1].MaxTime
			if m.MinTime-tsagg.FloorMod(m.MinTime, step) <= prev-tsagg.FloorMod(prev, step) {
				return false
			}
		}
	}
	return true
}
