package repro

// Benchmark harness: one benchmark per paper table/figure (regenerating the
// experiment's data from a shared simulated run), plus simulator and
// substrate benchmarks and the ablation sweeps called out in DESIGN.md.
//
// Run with: go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/tsagg"
	"repro/internal/units"
	"repro/internal/whatif"
)

var (
	benchOnce sync.Once
	benchData *core.RunData
	benchErr  error
)

// benchRun builds one shared scaled run for all analysis benchmarks so
// each benchmark measures experiment regeneration, not simulation.
func benchRun(b *testing.B) *core.RunData {
	b.Helper()
	benchOnce.Do(func() {
		cfg := ScaledConfig(128, 6*time.Hour)
		benchData, _, benchErr = core.CollectRun(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchData
}

func BenchmarkSimulateDay(b *testing.B) {
	// The digital twin itself: one simulated hour on 64 nodes per
	// iteration (≈360 windows × 64 nodes × 8 components).
	for i := 0; i < b.N; i++ {
		cfg := ScaledConfig(64, time.Hour)
		cfg.Seed = uint64(i)
		if _, _, err := core.CollectRun(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateFleet runs the twin at the paper's full floor scale
// (4,608 nodes) for a short span, including workload generation and
// scheduling. This is the configuration the tentpole throughput target is
// measured against.
func BenchmarkSimulateFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := ScaledConfig(4608, 30*time.Minute)
		cfg.Seed = uint64(i)
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimSteadyState isolates the hot loop: the system is built once
// (workload generation, scheduling, and per-node state construction stay
// outside the timer) and each iteration re-runs the window loop on the warm
// state. B/op and allocs/op here are the steady-state cost of Run itself;
// the reported windows metric divides them into per-window terms.
func BenchmarkSimSteadyState(b *testing.B) {
	cfg := ScaledConfig(256, time.Hour)
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	windows := float64(cfg.DurationSec / cfg.StepSec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(windows, "windows/run")
}

func BenchmarkTable3Classes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := table3(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4MeterValidation(b *testing.B) {
	d := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ValidationFromSource(d.Source()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5YearTrends(b *testing.B) {
	d := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure5Trends(d.Source()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6EnergyPowerKDE(b *testing.B) {
	recs := benchRun(b).Source().Jobs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Figure6EnergyPower(recs, 40)
	}
}

func BenchmarkFig7JobCDFs(b *testing.B) {
	recs := benchRun(b).Source().Jobs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Figure7JobCDFs(recs)
	}
}

func BenchmarkFig8DomainBreakdown(b *testing.B) {
	recs := benchRun(b).Source().Jobs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Figure8DomainBreakdown(recs)
	}
}

func BenchmarkFig9CPUGPUKde(b *testing.B) {
	recs := benchRun(b).Source().Jobs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Figure9ComponentKDE(recs, 40)
	}
}

func BenchmarkFig10PowerDynamics(b *testing.B) {
	src := benchRun(b).Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure10Dynamics(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11EdgeSnapshots(b *testing.B) {
	d := benchRun(b)
	src := d.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure11EdgeSnapshots(src, 60, 240); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12ThermalResponse(b *testing.B) {
	d := benchRun(b)
	src := d.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure12ThermalResponse(src, 60, 240); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4FailureComposition(b *testing.B) {
	d := benchRun(b)
	src := d.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table4Composition(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13FailureCorrelation(b *testing.B) {
	d := benchRun(b)
	src := d.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure13Correlation(src, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14FailuresPerProject(b *testing.B) {
	src := benchRun(b).Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure14FailuresPerProject(src, false, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15ThermalExtremity(b *testing.B) {
	d := benchRun(b)
	src := d.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure15ThermalExtremity(src, 0.8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16PlacementCounts(b *testing.B) {
	d := benchRun(b)
	src := d.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure16Placement(src, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17Variability(b *testing.B) {
	src := benchRun(b).Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure17Variability(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §3) ---

// BenchmarkAblationCoarsenWindow sweeps the coarsening window: the paper
// chose 10 s as the balance between fidelity and volume.
func BenchmarkAblationCoarsenWindow(b *testing.B) {
	samples := make([]tsagg.Sample, 86400)
	for i := range samples {
		samples[i] = tsagg.Sample{T: int64(i), V: float64(500 + i%1800)}
	}
	for _, window := range []int64{1, 10, 60} {
		window := window
		b.Run(benchName("window", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = tsagg.Coarsen(samples, window)
			}
		})
	}
}

// BenchmarkAblationEdgeFidelity measures how the coarsening window affects
// detected edge counts (reported via b.ReportMetric) and detection cost.
func BenchmarkAblationEdgeFidelity(b *testing.B) {
	src := benchRun(b).Source()
	for _, factor := range []int{1, 6, 30} {
		factor := factor
		b.Run(benchName("downsample", int64(factor)), func(b *testing.B) {
			series := coarsenSeries(src.SeriesByName[source.SeriesClusterPower], factor)
			var edges int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				edges = len(core.DetectEdges(series, src.RunMeta.Nodes))
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// coarsenSeries re-coarsens s into windows factor steps wide, each the mean
// of its non-NaN values.
func coarsenSeries(s *tsagg.Series, factor int) *tsagg.Series {
	samples := make([]tsagg.Sample, 0, s.Len())
	for i, v := range s.Vals {
		if !math.IsNaN(v) {
			samples = append(samples, tsagg.Sample{T: s.TimeAt(i), V: v})
		}
	}
	window := s.Step * int64(factor)
	ws := tsagg.Coarsen(samples, window)
	out := tsagg.NewSeries(ws[0].T, window, int((ws[len(ws)-1].T-ws[0].T)/window)+1)
	for _, w := range ws {
		out.Set(w.T, w.Mean)
	}
	return out
}

// BenchmarkAblationWorkers sweeps the node-update parallelism of the twin.
func BenchmarkAblationWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 0} {
		workers := workers
		b.Run(benchName("workers", int64(workers)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ScaledConfig(64, 30*time.Minute)
				cfg.Workers = workers
				s, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKDEGrid sweeps the KDE grid resolution of Figure 6.
func BenchmarkAblationKDEGrid(b *testing.B) {
	recs := benchRun(b).Source().Jobs
	for _, grid := range []int{20, 40, 80} {
		grid := grid
		b.Run(benchName("grid", int64(grid)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.Figure6EnergyPower(recs, grid)
			}
		})
	}
}

func benchName(k string, v int64) string {
	if v == 0 {
		return k + "=auto"
	}
	return fmt.Sprintf("%s=%d", k, v)
}

// BenchmarkSection2ThermalBands regenerates the operator-dashboard band
// summary.
func BenchmarkSection2ThermalBands(b *testing.B) {
	d := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ThermalBandsFromSource(d.Source()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection9Fingerprints regenerates the future-work fingerprint
// clustering and prediction evaluation.
func BenchmarkSection9Fingerprints(b *testing.B) {
	src := benchRun(b).Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fps, err := core.BuildFingerprints(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.ClusterFingerprints(fps, 5, 9); err != nil {
			b.Fatal(err)
		}
		if _, err := core.EvaluateFingerprintPrediction(fps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection8PowerCap runs the power-aware scheduling what-if, the
// power-cap catalog study (the nominal arm and three caps), through
// whatif.RunGrid.
func BenchmarkSection8PowerCap(b *testing.B) {
	study, err := whatif.StudyByName("power-cap")
	if err != nil {
		b.Fatal(err)
	}
	base, err := scenario.Resolve(study.Scenario)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := whatif.RunGrid(base.Config, study.Axes, whatif.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSampling sweeps the per-window 1 Hz emulation depth:
// more sub-samples refine the window min/max/std at linear cost.
func BenchmarkAblationSampling(b *testing.B) {
	for _, samples := range []int{1, 2, 10} {
		samples := samples
		b.Run(benchName("samples", int64(samples)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ScaledConfig(48, 30*time.Minute)
				cfg.SamplesPerWindow = samples
				cfg.Seed = uint64(i)
				if _, _, err := core.CollectRun(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Query engine benchmarks (internal/query over a store archive) ---

var (
	queryBenchOnce sync.Once
	queryBenchDir  string
	queryBenchErr  error
)

const (
	queryBenchNodes = 36
	queryBenchDays  = 4
	queryBenchStep  = int64(60)
)

// queryBenchArchive writes one shared node-power archive (4 days, 36 nodes,
// 60 s cadence ≈ 207k rows) through the collector's own writer,
// source.NodeDayWriter: seven columns in day partitions under the collector's
// codec plus the Gorilla-encoded pre-aggregate companion, so the benchmarks
// exercise the same decode work a summitsim archive would. A stub
// cluster-power day and the run-meta record commit it.
func queryBenchArchive(b *testing.B) string {
	b.Helper()
	queryBenchOnce.Do(func() {
		queryBenchDir, queryBenchErr = os.MkdirTemp("", "querybench")
		if queryBenchErr != nil {
			return
		}
		queryBenchErr = writeQueryBenchArchive(queryBenchDir)
	})
	if queryBenchErr != nil {
		b.Fatal(queryBenchErr)
	}
	return queryBenchDir
}

func writeQueryBenchArchive(dir string) error {
	tcfg, err := topology.PresetScaled("", queryBenchNodes)
	if err != nil {
		return err
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		return err
	}
	w := source.NewNodeDayWriter(dir, queryBenchNodes, floor)
	for tm := int64(0); tm < queryBenchDays*86400; tm += queryBenchStep {
		rows := make([]source.NodeWindow, queryBenchNodes)
		for n := range rows {
			v := 2000 + 10*float64(n) + float64(tm%3600)*0.01
			rows[n] = source.NodeWindow{Node: int64(n), Stat: tsagg.WindowStat{T: tm, Count: 6, Min: v - 1, Max: v + 1, Mean: v, Std: 0.5}}
		}
		if err := w.Append(rows); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	// Commit it as a run: the one-row cluster-power day and the run-meta
	// record, last, that every archive open requires.
	cluster, err := store.NewDataset(dir, source.DatasetClusterPower)
	if err != nil {
		return err
	}
	if err := cluster.WriteDay(0, &store.Table{Cols: []store.Column{
		{Name: "timestamp", Ints: []int64{0}}, {Name: "sum_inp", Floats: []float64{0}},
	}}); err != nil {
		return err
	}
	manifest, err := store.NewDataset(dir, source.DatasetRunMeta)
	if err != nil {
		return err
	}
	return manifest.WriteDay(0, source.ManifestTable(source.Meta{
		StepSec: queryBenchStep, Nodes: queryBenchNodes, Windows: int(queryBenchDays * 86400 / queryBenchStep),
	}))
}

func queryBenchEngine(b *testing.B) *query.Engine {
	b.Helper()
	eng, err := query.Open(query.Config{
		Dir: queryBenchArchive(b), Nodes: queryBenchNodes,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// queryBenchRequest is a three-day fleet-wide downsample that starts one
// second off the 600 s grid: an aligned one is answered from the rollup
// companions (BenchmarkQueryRangePreagg), and BenchmarkQueryRange and
// BenchmarkQueryRangeCached exist to measure the per-row paths.
func queryBenchRequest() query.RangeRequest {
	return query.RangeRequest{
		Dataset: "node-power", Column: "input_power.mean", Node: -1,
		T0: 3601, T1: 3*86400 + 3600, Step: 600,
	}
}

// BenchmarkQueryRange measures a cold three-day fleet-wide downsample:
// every iteration flushes the decoded-table cache, so this is the raw
// decode+aggregate path (first touch: the streaming iterator). The range is
// off the pre-aggregation grid, so no companion can answer it.
func BenchmarkQueryRange(b *testing.B) {
	eng := queryBenchEngine(b)
	ctx := context.Background()
	req := queryBenchRequest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.FlushCache()
		if _, err := eng.Range(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRollup measures a cold full-span cabinet rollup on the
// pre-aggregation grid (600 s windows), answered from the persisted
// companion partitions. The gap to BenchmarkQueryRollupScan is the value of
// write-time rollups.
func BenchmarkQueryRollup(b *testing.B) {
	eng := queryBenchEngine(b)
	ctx := context.Background()
	req := query.RollupRequest{
		Dataset: "node-power", Column: "input_power.mean", Group: query.GroupCabinet,
		T0: 0, T1: queryBenchDays * 86400, Step: 600,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.FlushCache()
		if _, err := eng.Rollup(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRollupScan is the same cold cabinet rollup off the
// pre-aggregation grid (1800 s windows), forcing a per-node scan: the
// aggregate-during-decode iteration without the pre-aggregate shortcut.
func BenchmarkQueryRollupScan(b *testing.B) {
	eng := queryBenchEngine(b)
	ctx := context.Background()
	req := query.RollupRequest{
		Dataset: "node-power", Column: "input_power.mean", Group: query.GroupCabinet,
		T0: 0, T1: queryBenchDays * 86400, Step: 1800,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.FlushCache()
		if _, err := eng.Rollup(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteNodeDay measures the collector's node-power day: one
// simulated 64-node day at the 10 s cadence (553k rows, the shape summitsim
// -nodedata writes) fed to a source.NodeDayWriter in the collector's blocks
// of 1<<14 rows, then committed — the base partition's delta + deflate, the
// rollup fold and the Gorilla companion.
func BenchmarkWriteNodeDay(b *testing.B) {
	const nodes, block = 64, 1 << 14
	var day []source.NodeWindow
	_, _, err := core.CollectRun(ScaledConfig(nodes, 24*time.Hour), sim.ObserverFunc(func(s *sim.Snapshot) {
		for n, st := range s.NodeStat {
			day = append(day, source.NodeWindow{Node: int64(n), Stat: st})
		}
	}))
	if err != nil {
		b.Fatal(err)
	}
	tcfg, err := topology.PresetScaled("", nodes)
	if err != nil {
		b.Fatal(err)
	}
	floor, err := topology.New(tcfg)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := source.NewNodeDayWriter(dir, nodes, floor)
		for j := 0; j < len(day); j += block {
			if err := w.Append(day[j:min(j+block, len(day))]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// queryBenchDay is the node-power dataset of the query fixture; the codec
// benchmarks read its day 0.
func queryBenchDay(b *testing.B) *store.Dataset {
	b.Helper()
	ds, err := store.NewDataset(queryBenchArchive(b), "node-power")
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkDayMeta measures what queryd pays per partition at start: the
// file's first block read and the directory in its gzip header parsed (before
// partitions had one: the time axis decoded, every other column walked past).
func BenchmarkDayMeta(b *testing.B) {
	ds := queryBenchDay(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m, err := ds.DayMeta(0, source.TimeColumns...); err != nil || !m.TimeSorted {
			b.Fatalf("meta %+v, err %v", m, err)
		}
	}
}

// BenchmarkSkipDelta steps over all seven columns of that day: the
// floor under every column-selective read — seven seeks by the directory's
// member lengths (before: inflate plus the varint walk).
func BenchmarkSkipDelta(b *testing.B) {
	ds := queryBenchDay(b)
	raw, err := os.ReadFile(filepath.Join(ds.Dir, ds.DayFile(0)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := store.NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			if err := r.Skip(); err != nil {
				b.Fatal(err)
			}
		}
		_ = r.Close()
	}
}

// BenchmarkStreamIngest measures the live plane end to end in-process:
// one iteration pushes a full fleet window (256 nodes × power + 6 GPU
// temperatures) through Pipeline.Ingest and on through the fold goroutine's
// coarsen → operator chain. The producer is paced the way the end-to-end
// benchmark's in-process replay is — it waits while the queue is more than
// half full — so nothing is ever dropped, and the timed region ends after
// Close has drained the queue: ns/op and B/op are per ingested window, all
// goroutines included; divide by 7×nodes for the per-sample cost.
func BenchmarkStreamIngest(b *testing.B) {
	const nodes = 256
	pipe, err := stream.NewPipeline(stream.Config{Nodes: nodes, QueueDepth: 4096})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]telemetry.Sample, 0, nodes*7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = appendFleetSecond(batch[:0], 0, nodes, int64(i)*10, i)
		pipe.Ingest(batch)
		for overHalfFull(pipe) {
			time.Sleep(20 * time.Microsecond)
		}
	}
	pipe.Close()
	b.StopTimer()
	snap := pipe.Snapshot()
	if snap.Ingest.Dropped > 0 {
		b.Fatalf("benchmark overran the queue: %+v", snap.Ingest)
	}
	b.ReportMetric(float64(snap.Ingest.Frames)/float64(b.N), "frames/op")
}

// BenchmarkStreamIngestSummit is the live plane at Summit's size with its
// default configuration: one iteration is one event-second of the whole
// fleet (4 626 nodes × power + 6 GPU temperatures), ingested in batches of
// 1 792 samples (256 nodes), paced as BenchmarkStreamIngest is. It fails on
// any dropped sample and reports ns/sample, all goroutines included.
func BenchmarkStreamIngestSummit(b *testing.B) {
	const nodes, perBatch = units.SummitNodes, 256
	pipe, err := stream.NewPipeline(stream.Config{Nodes: nodes})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]telemetry.Sample, 0, perBatch*7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n0 := 0; n0 < nodes; n0 += perBatch {
			batch = appendFleetSecond(batch[:0], n0, min(n0+perBatch, nodes), int64(i), i)
			pipe.Ingest(batch)
			for overHalfFull(pipe) {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	pipe.Close()
	b.StopTimer()
	st := pipe.Snapshot().Ingest
	if st.Dropped > 0 || st.Received != int64(b.N)*nodes*7 {
		b.Fatalf("benchmark lost samples: %+v", st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Received), "ns/sample")
}

// appendFleetSecond appends the samples of nodes [from, to) at time t —
// each node's input power and six GPU core temperatures — with values
// varied by iteration i.
func appendFleetSecond(batch []telemetry.Sample, from, to int, t int64, i int) []telemetry.Sample {
	for n := from; n < to; n++ {
		batch = append(batch, telemetry.Sample{
			Node: topology.NodeID(n), Metric: telemetry.MetricInputPower,
			T: t, Value: float64(10_000 + n + i%50),
		})
		for g := topology.GPUSlot(0); g < 6; g++ {
			batch = append(batch, telemetry.Sample{
				Node: topology.NodeID(n), Metric: telemetry.GPUCoreTempMetric(g),
				T: t, Value: float64(30 + (n+int(g)+i)%40),
			})
		}
	}
	return batch
}

// overHalfFull reports whether the pipeline's queue is more than half full.
func overHalfFull(p *stream.Pipeline) bool {
	q := p.Health().Shards[0]
	return 2*q.QueueLen > q.QueueCap
}

// BenchmarkQueryRangeCached is the same off-grid query against a warm cache
// — the fold over the resident tables: the speedup over BenchmarkQueryRange
// is the value of the decoded-table cache.
func BenchmarkQueryRangeCached(b *testing.B) {
	eng := queryBenchEngine(b)
	ctx := context.Background()
	req := queryBenchRequest()
	// Two warm-up passes: under the doorkeeper admission policy the first
	// touch streams without caching; the second materializes and admits.
	for i := 0; i < 2; i++ {
		if _, err := eng.Range(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Range(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRangePreagg is the same three-day fleet-wide downsample
// moved onto the 600 s grid and warm: answered from the resident rollup
// companions, one accumulator row per window, without a per-node row. The
// gap to BenchmarkQueryRangeCached is what the companions save a dashboard's
// fleet range.
func BenchmarkQueryRangePreagg(b *testing.B) {
	eng := queryBenchEngine(b)
	ctx := context.Background()
	req := queryBenchRequest()
	req.T0 = 3600
	if res, err := eng.Range(ctx, req); err != nil || !res.Stats.Preagg {
		b.Fatalf("warm-up: preagg=%v, err %v", res != nil && res.Stats.Preagg, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Range(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPoll times a dashboard's poll of one URL it has asked before: one
// request through the whole handler (guard, reply cache, headers, body) into
// a recorder, over data archived.
func benchPoll(b *testing.B, data *core.RunData, url string) {
	dir := b.TempDir()
	if err := core.WriteDatasets(dir, data); err != nil {
		b.Fatal(err)
	}
	eng, err := query.Open(query.Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	h, err := query.NewFleetHandler([]query.Cluster{{Engine: eng, Source: eng.Source()}}, query.ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, url, nil)
	serve := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Len()
	}
	b.SetBytes(int64(serve())) // the one compute
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// BenchmarkHTTPAnalysisBands polls a stored analysis (a small body, all
// payload).
func BenchmarkHTTPAnalysisBands(b *testing.B) {
	data := benchRun(b)
	benchPoll(b, data, "/api/v1/analysis/bands")
}

// BenchmarkHTTPRangeCached polls the dashboard's cluster-power panel (one
// window a minute: the payload copied under a fresh stats block). Before the
// reply cache covered range queries this was the engine scan and the float
// encode every time.
func BenchmarkHTTPRangeCached(b *testing.B) {
	data := benchRun(b)
	benchPoll(b, data, "/api/v1/range?dataset=cluster-power&column=sum_inp&step=60")
}

// BenchmarkHTTPRangeOversize polls a day of the same panel raw: 340 KB, over
// the reply cache's per-entry cap, so scanned and encoded on every poll and
// never stored — the path of an unstorable reply, which must cost what it
// did before there was a cache.
func BenchmarkHTTPRangeOversize(b *testing.B) {
	data, _, err := core.CollectRun(ScaledConfig(16, 24*time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	benchPoll(b, data, "/api/v1/range?dataset=cluster-power&column=sum_inp")
}
