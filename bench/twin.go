package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/topology"
)

// twinSeed keeps summitsim's -seed non-zero.
func twinSeed(seed uint64) uint64 { return seed + 1 }

// twinArgs is the summitsim invocation of the twin-archive workload.
func twinArgs(nodes int, days float64, seed uint64, out string) []string {
	return []string{
		"-nodes", strconv.Itoa(nodes),
		"-days", strconv.FormatFloat(days, 'g', -1, 64),
		"-seed", strconv.FormatUint(twinSeed(seed), 10),
		"-nodedata", "-q", "-out", out,
	}
}

// runTwin is the twin-archive workload: summitsim simulating TwinNodes for
// TwinDays and archiving per-node data, a fresh process per repetition.
func (h *harness) runTwin(res *runResult, tr *tracer) error {
	sz, bin := h.sz, h.binary("summitsim")
	// Set-up: an untimed short run, so the binary and its pages are warm.
	setup, err := setupRounds(setupRepeats, func(i int) error {
		dir := filepath.Join(h.work, fmt.Sprintf("twin-warm-%d", i))
		defer os.RemoveAll(dir)
		_, err := runBatch(h.ctx, bin, twinArgs(sz.TwinNodes, sz.TwinWarmDays, res.Seed, dir)...)
		return err
	})
	if err != nil {
		return err
	}
	res.set("setup_s", setup, setupRepeats)

	span := time.Duration(sz.TwinDays * 24 * float64(time.Hour))
	cfg := repro.ScaledConfig(sz.TwinNodes, span)
	windows := int(cfg.DurationSec / cfg.StepSec)
	nodeHours := float64(sz.TwinNodes) * span.Hours()
	var rate, wallMS, cpuMS, rss []float64
	var firstHash string
	var bytesPerRow float64
	for rep := 0; rep < h.reps; rep++ {
		dir := filepath.Join(h.work, fmt.Sprintf("twin-rep-%d", rep))
		res.attempt(1)
		u, err := runBatch(h.ctx, bin, twinArgs(sz.TwinNodes, sz.TwinDays, res.Seed, dir)...)
		if err != nil {
			return err
		}
		rate = append(rate, nodeHours/u.Wall.Seconds())
		wallMS = append(wallMS, ms(u.Wall))
		cpuMS = append(cpuMS, ms(u.CPU)/nodeHours)
		rss = append(rss, u.MaxRSSMB)

		// Correctness, outside the timed region.
		rows, nodeBytes, err := checkTwinArchive(dir, sz.TwinNodes, windows)
		if err != nil {
			res.fail("rep %d: %v", rep, err)
		} else {
			bytesPerRow = float64(nodeBytes) / float64(rows)
		}
		sum, _, err := hashFiles(dir, "*.spwr")
		if err != nil {
			return err
		}
		if rep == 0 {
			firstHash = sum
		} else if sum != firstHash {
			res.fail("rep %d: archive differs from rep 0 for the same seed", rep)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	res.set("ops_per_s", stats.Median(rate), len(rate))
	res.set("op_p50_ms", stats.Median(wallMS), len(wallMS))
	res.set("cpu_ms_per_op", stats.Median(cpuMS), len(cpuMS))
	res.set("archive_bytes_per_row", bytesPerRow, 0)
	res.set("cmd.summitsim.peak_rss_mb", stats.Median(rss), len(rss))
	if tr != nil {
		return h.traceTwin(res, tr, cfg)
	}
	return nil
}

// checkTwinArchive re-opens an archive summitsim wrote and checks its
// shape: the manifest's windows and nodes, and node-power rows equal to
// nodes x windows. It returns those rows and the bytes of the node-power
// partitions and their rollup companions.
func checkTwinArchive(dir string, nodes, windows int) (rows int, nodeBytes int64, err error) {
	src, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		return 0, 0, fmt.Errorf("archive does not re-open: %w", err)
	}
	meta, err := src.Meta()
	if err != nil {
		return 0, 0, err
	}
	if meta.Windows != windows || meta.Nodes != nodes {
		return 0, 0, fmt.Errorf("run-meta says %d windows x %d nodes, want %d x %d",
			meta.Windows, meta.Nodes, windows, nodes)
	}
	ds, err := store.NewDataset(dir, core.DatasetNodePower)
	if err != nil {
		return 0, 0, err
	}
	days, err := ds.Days()
	if err != nil {
		return 0, 0, err
	}
	for _, day := range days {
		m, err := ds.DayMeta(day)
		if err != nil {
			return 0, 0, err
		}
		rows += m.Rows
	}
	if rows != nodes*windows {
		return 0, 0, fmt.Errorf("node-power has %d rows, want %d x %d", rows, nodes, windows)
	}
	rollup, err := store.NewDataset(dir, source.RollupDatasetName(core.DatasetNodePower))
	if err != nil {
		return 0, 0, err
	}
	for _, d := range []*store.Dataset{ds, rollup} {
		n, err := d.SizeOnDisk()
		if err != nil {
			return 0, 0, err
		}
		nodeBytes += n
	}
	return rows, nodeBytes, nil
}

// nodeRollupCols are the node-power value columns the collector folds into
// the rollup companion.
var nodeRollupCols = []string{
	"input_power.count", "input_power.min", "input_power.max",
	"input_power.mean", "input_power.std",
}

// traceTwin replays the twin-archive run in process, once without and once
// with spans, then probes the write path's layers on the day it wrote.
func (h *harness) traceTwin(res *runResult, tr *tracer, cfg repro.Config) error {
	cfg.Seed = twinSeed(res.Seed)
	replay := func(tr *tracer, dir string) (time.Duration, int, error) {
		start := time.Now()
		root := tr.begin("bench.twin-archive.replay")
		defer tr.end(root)
		data, result, err := replaySim(tr, cfg, dir)
		if err != nil {
			return 0, 0, err
		}
		id := tr.begin(spanWriteSets)
		err = core.WriteDatasets(dir, data)
		tr.end(id)
		return time.Since(start), result.Steps, err
	}
	plainDir := filepath.Join(h.work, "twin-replay-plain")
	untraced, _, err := replay(nil, plainDir)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(plainDir); err != nil {
		return err
	}
	dir := filepath.Join(h.work, "twin-replay")
	traced, steps, err := replay(tr, dir)
	if err != nil {
		return err
	}
	res.set("bench.trace_overhead_share", overhead(untraced, traced), 0)
	res.set("sim.windows", float64(steps), 0)

	tr.in("bench.twin-archive.probes", func() {
		if err = probeSimInputs(tr, cfg); err != nil {
			return
		}
		probeSteps(tr, res, cfg)
		err = probeWriteDay(tr, res, dir, filepath.Join(h.work, "twin-rewrite"), cfg.Nodes)
	})
	if err != nil {
		return err
	}
	self := selfByName(tr.spans)
	setSpan(res, "workload.generate_ms", self, spanGenerate, time.Millisecond, 1)
	setSpan(res, "scheduler.schedule_ms", self, spanSchedule, time.Millisecond, 1)
	setSpan(res, "sim.new_ms", self, spanSimNew, time.Millisecond, 1)
	setSpan(res, "sim.run_self_s", self, spanSimRun, time.Second, 1)
	setSpan(res, "core.collector_observe_s", self, spanCollector, time.Second, 1)
	setSpan(res, "core.nodewriter_observe_s", self, spanNodeObs, time.Second, 1)
	setSpan(res, "core.nodewriter_close_ms", self, spanNodeClose, time.Millisecond, 1)
	setSpan(res, "core.write_datasets_ms", self, spanWriteSets, time.Millisecond, 1)
	return nil
}

// probeWriteDay re-writes the first node-power day of the archive in dir
// under the collector's codec and under CodecGorilla, and folds it through
// the rollup reducer: the write path below NodeDatasetWriter, layer by
// layer.
func probeWriteDay(tr *tracer, res *runResult, dir, scratch string, nodes int) error {
	ds, err := store.NewDataset(dir, core.DatasetNodePower)
	if err != nil {
		return err
	}
	tab, err := ds.ReadDay(0)
	if err != nil {
		return err
	}
	rows := tab.NumRows()
	for _, c := range []struct {
		codec         store.Codec
		span          string
		timeM, bytesM string
	}{
		{store.CodecDelta, "store.Dataset.WriteDayCodec(delta)", "store.write_day_ms", "store.bytes_per_row_delta"},
		{store.CodecGorilla, "store.Dataset.WriteDayCodec(gorilla)", "store.write_day_gorilla_ms", "store.bytes_per_row_gorilla"},
	} {
		out, err := store.NewDataset(filepath.Join(scratch, c.bytesM), core.DatasetNodePower)
		if err != nil {
			return err
		}
		start := time.Now()
		id := tr.begin(c.span)
		err = out.WriteDayCodec(0, tab, c.codec)
		tr.end(id)
		if err != nil {
			return err
		}
		res.set(c.timeM, ms(time.Since(start)), 1)
		size, err := out.SizeOnDisk()
		if err != nil {
			return err
		}
		res.set(c.bytesM, float64(size)/float64(rows), 0)
	}

	tcfg, err := topology.PresetScaled("", nodes)
	if err != nil {
		return err
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		return err
	}
	ts, node := tab.Col("timestamp").Ints, tab.Col("node").Ints
	count := tab.Col(nodeRollupCols[0]).Ints
	var cols [4][]float64
	for i := range cols {
		cols[i] = tab.Col(nodeRollupCols[i+1]).Floats
	}
	start := time.Now()
	id := tr.begin("source.RollupReducer")
	red := source.NewRollupReducer(floor, nodeRollupCols)
	vals := make([]float64, len(nodeRollupCols))
	for i := range ts {
		vals[0] = float64(count[i])
		for c := range cols {
			vals[c+1] = cols[c][i]
		}
		if err = red.Add(ts[i], node[i], vals); err != nil {
			break
		}
	}
	_ = red.Table()
	tr.end(id)
	if err != nil {
		return err
	}
	res.set("source.rollup_reduce_ms", ms(time.Since(start)), 1)
	return nil
}
