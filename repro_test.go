package repro

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/scenario"
	"repro/internal/source"
	"repro/internal/topology"
	"repro/internal/tsagg"
	"repro/internal/units"
	"repro/internal/whatif"
)

// Integration tests: the whole pipeline must run and every report must
// render non-trivially.

var (
	runOnce sync.Once
	runData *core.RunData
	runErr  error
)

func testRun(t *testing.T) *core.RunData {
	t.Helper()
	runOnce.Do(func() {
		cfg := ScaledConfig(108, 5*time.Hour)
		runData, _, runErr = core.CollectRun(cfg)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return runData
}

func TestScaledConfig(t *testing.T) {
	cfg := ScaledConfig(256, 24*time.Hour)
	if cfg.Nodes != 256 || cfg.DurationSec != 86400 {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.Jobs < 20 {
		t.Errorf("jobs = %d, want >= 20", cfg.Jobs)
	}
	if cfg.StepSec != 10 {
		t.Errorf("step = %d, want paper's 10 s window", cfg.StepSec)
	}
	if cfg.FailureRateScale < 1 {
		t.Errorf("failure scale = %v", cfg.FailureRateScale)
	}
	// Span floor.
	tiny := ScaledConfig(8, time.Second)
	if tiny.DurationSec < 600 {
		t.Errorf("tiny span = %d, want floor of 600", tiny.DurationSec)
	}
	// Full-scale year: rate scale ~1, job count ~840k.
	full := ScaledConfig(units.SummitNodes, 365*24*time.Hour)
	if full.Jobs < 800_000 || full.Jobs > 880_000 {
		t.Errorf("full-scale jobs = %d, want ≈840k", full.Jobs)
	}
	if full.FailureRateScale != 1 {
		t.Errorf("full-scale failure scale = %v, want 1", full.FailureRateScale)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := ScaledConfig(36, time.Hour)
	a, _, err := core.CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := core.CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Source().SeriesByName[source.SeriesClusterPower], b.Source().SeriesByName[source.SeriesClusterPower]
	for i := 0; i < pa.Len(); i++ {
		if pa.Vals[i] != pb.Vals[i] {
			t.Fatalf("cluster power diverged at window %d", i)
		}
	}
	if len(a.Source().Events) != len(b.Source().Events) {
		t.Fatal("failure logs diverged")
	}
}

func TestAllReportsRender(t *testing.T) {
	for _, r := range Render(testRun(t).Source()) {
		rep, err := r.Report, r.Err
		if err != nil {
			t.Errorf("%s: %v", rep.ID, err)
			continue
		}
		s := rep.String()
		if len(s) < 40 {
			t.Errorf("%s: report too small: %q", rep.ID, s)
		}
		if !strings.Contains(s, "== ") || !strings.Contains(s, rep.ID) {
			t.Errorf("%s: header malformed", rep.ID)
		}
		if rep.PaperRef == "" {
			t.Errorf("%s: missing paper reference", rep.ID)
		}
	}
}

// reportOf renders the report id from src.
func reportOf(t *testing.T, src source.RunSource, id string) Report {
	t.Helper()
	for _, r := range Render(src) {
		if r.Report.ID == id {
			if r.Err != nil {
				t.Fatalf("%s: %v", id, r.Err)
			}
			return r.Report
		}
	}
	t.Fatalf("no report %s", id)
	return Report{}
}

// TestReportsFromAnArchive: every report that reads a RunSource renders the
// same text, byte for byte, from a run in memory and from its archive.
func TestReportsFromAnArchive(t *testing.T) {
	d, _, err := core.CollectRun(ScaledConfig(36, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := core.WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	arc, err := source.OpenArchive(source.ArchiveConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mem, fromArchive := Render(d.Source()), Render(arc)
	for i, r := range SourceReports {
		id := r.ID
		fromMem, err := mem[i].Report, mem[i].Err
		if err != nil {
			t.Errorf("%s from memory: %v", id, err)
			continue
		}
		fromArc, err := fromArchive[i].Report, fromArchive[i].Err
		if err != nil {
			t.Errorf("%s from the archive: %v", id, err)
			continue
		}
		if fromMem.ID != id {
			t.Errorf("%s renders report %s", id, fromMem.ID)
		}
		if fromMem.String() != fromArc.String() {
			t.Errorf("%s differs:\nmemory:\n%s\narchive:\n%s", id, fromMem, fromArc)
		}
	}
}

// TestFrontierVariabilityCabinetsAreTheFloors runs Figure 17 on a
// Frontier-shaped floor (128 nodes per cabinet): every heatmap cell must
// name one of that floor's cabinets, not a Summit-sized 18-node slice.
func TestFrontierVariabilityCabinetsAreTheFloors(t *testing.T) {
	cfg := ScaledConfig(384, 3*time.Hour)
	cfg.Site = topology.SiteFrontier
	d, _, err := core.CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := topology.PresetScaled(topology.SiteFrontier, cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := topology.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Figure17Variability(d.Source())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Instants {
		for cab := range v.MeanByCabinet {
			if cab < 0 || cab >= floor.Cabinets() {
				t.Fatalf("instant %d files GPUs under cabinet %d; the floor has %d", v.T, cab, floor.Cabinets())
			}
		}
	}
}

func TestReportTable4MatchesPaperShape(t *testing.T) {
	rep := reportOf(t, testRun(t).Source(), "table-4")
	// The dominant row must be memory page faults, as in the paper.
	lines := strings.Split(rep.Body, "\n")
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "Memory page fault") {
			found = true
			break
		}
	}
	if !found {
		t.Error("memory page fault row missing from Table 4 report")
	}
}

func TestExtensionReports(t *testing.T) {
	d := testRun(t)
	// Thermal bands (operator dashboard).
	bands := reportOf(t, d.Source(), "section-2-bands")
	if !strings.Contains(bands.Body, "<30°C") {
		t.Errorf("bands report missing band labels: %q", bands.Body)
	}
	// Fingerprints (future work).
	fp := reportOf(t, d.Source(), "section-9")
	if !strings.Contains(fp.Body, "max-power prediction") {
		t.Errorf("fingerprint report missing prediction: %q", fp.Body)
	}
}

// powerCapStudy runs the power-cap catalog study as optimize -study
// power-cap and repro -powercap run it.
func powerCapStudy(t *testing.T) *whatif.SweepResult {
	t.Helper()
	study, err := whatif.StudyByName("power-cap")
	if err != nil {
		t.Fatal(err)
	}
	base, err := scenario.Resolve(study.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	res, err := whatif.RunGrid(base.Config, study.Axes, whatif.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluated) != 4 || res.Evaluated[0].Label != "nominal" {
		t.Fatalf("power-cap study evaluated %d arms, want the nominal arm and three caps", len(res.Evaluated))
	}
	return res
}

// TestPowerCapStudy holds the power-cap study to §8's trade: its caps sit
// at about 0.7, 0.8 and 0.9 of the nominal arm's peak, each capped peak
// stays within the admission estimate's slack of its cap, every job of the
// nominal arm is placed or skipped under each cap, a tighter cap never
// raises the peak or skips fewer jobs, and no wait is negative.
func TestPowerCapStudy(t *testing.T) {
	res := powerCapStudy(t)
	nominal := res.Evaluated[0]
	if nominal.PeakPowerMW <= 0 || nominal.JobsPlaced == 0 || nominal.MeanWaitSec < 0 {
		t.Fatalf("nominal arm malformed: %+v", nominal)
	}
	capped := res.Evaluated[1:] // caps ascending: the tightest first
	for i, r := range capped {
		capMW := r.Scenario.Params[whatif.ParamPowerCapMW]
		if frac := capMW / nominal.PeakPowerMW; math.Abs(frac-0.7-0.1*float64(i)) > 0.01 {
			t.Errorf("%s is %.3f of the nominal peak %.4f MW, want %.1f", r.Label, frac, nominal.PeakPowerMW, 0.7+0.1*float64(i))
		}
		if r.PeakPowerMW > capMW*1.15 {
			t.Errorf("%s: peak %.4f MW blew through its cap", r.Label, r.PeakPowerMW)
		}
		if r.JobsPlaced+r.JobsSkipped != nominal.JobsPlaced+nominal.JobsSkipped {
			t.Errorf("%s: %d placed + %d skipped, nominal %d + %d", r.Label,
				r.JobsPlaced, r.JobsSkipped, nominal.JobsPlaced, nominal.JobsSkipped)
		}
		if r.MeanWaitSec < 0 {
			t.Errorf("%s: negative mean wait %g s", r.Label, r.MeanWaitSec)
		}
		looser := nominal
		if i+1 < len(capped) {
			looser = capped[i+1]
		}
		if r.PeakPowerMW > looser.PeakPowerMW+1e-6 || r.JobsSkipped < looser.JobsSkipped {
			t.Errorf("%s: peak %.4f MW and %d skipped beside %s's %.4f MW and %d", r.Label,
				r.PeakPowerMW, r.JobsSkipped, looser.Label, looser.PeakPowerMW, looser.JobsSkipped)
		}
	}
}

// TestIdentityPinPowerCap freezes the §8 what-if bit for bit: each arm of
// the power-cap study's peak, p99, IT energy, mean PUE, mean wait,
// utilization and overcooling, and its placed and skipped jobs. The
// literals were recorded when the what-if became a catalog study; never
// regenerate them for a refactor. The utilization literals alone were
// re-recorded when sweeps took report.json's definition (placed
// node-seconds inside the span over the span's node-seconds) in place of
// the scheduler's makespan figure: 0.3580 → 0.3376, 0.2215 → 0.1985,
// 0.2307 → 0.2078 and 0.2897 → 0.2680.
func TestIdentityPinPowerCap(t *testing.T) {
	want := []struct {
		peak, p99, it, pue, wait, util, oc uint64
		placed, skipped                    int
	}{
		{0x3fc29f9f685c0050, 0x3fc1b79430e12f74, 0x3ff519d53ee61613, 0x3ff2e0852d4411ca,
			0x408686739ce739ce, 0x3fd59a99fab0bc1d, 0x403d871d03c49557, 31, 0},
		{0x3fb8936c05ff8f28, 0x3fb8890c7d1b4993, 0x3ff04be329116c66, 0x3ff32e62cdb9ad80,
			0x408104aaaaaaaaab, 0x3fc967e32d21c10b, 0x40215992d56b117a, 24, 7},
		{0x3fbaa48863b9d3a1, 0x3fba9884405d4b06, 0x3ff0aa5f449a6fc0, 0x3ff32f7ec2d80f73,
			0x4080566666666666, 0x3fca9a84bda12f68, 0x402472a5c81e0880, 25, 6},
		{0x3fc0958bce9d474f, 0x3fc06c018800252e, 0x3ff2a38be69800a1, 0x3ff311732c4ac37c,
			0x40807097b425ed09, 0x3fd126bcdf012345, 0x40337e045fc97859, 27, 4},
	}
	for i, r := range powerCapStudy(t).Evaluated {
		w := want[i]
		got := []float64{r.PeakPowerMW, r.P99PowerMW, r.ITEnergyMWh, r.MeanPUE, r.MeanWaitSec, r.Utilization, r.OvercoolingTonH}
		for k, wb := range []uint64{w.peak, w.p99, w.it, w.pue, w.wait, w.util, w.oc} {
			if math.Float64bits(got[k]) != wb {
				t.Errorf("%s field %d = %#016x, want %#016x", r.Label, k, math.Float64bits(got[k]), wb)
			}
		}
		if r.JobsPlaced != w.placed || r.JobsSkipped != w.skipped {
			t.Errorf("%s placed/skipped = %d/%d, want %d/%d", r.Label, r.JobsPlaced, r.JobsSkipped, w.placed, w.skipped)
		}
	}
}

func TestWriteFigureData(t *testing.T) {
	d := testRun(t)
	dir := t.TempDir()
	files, err := WriteFigureData(dir, Render(d.Source()))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("only %d figure files written", len(files))
	}
	// Key files must exist and be non-trivial.
	must := []string{"fig4_diff_samples.csv", "fig5_cluster_series.csv",
		"fig6_energy_power.csv", "fig16_placement.csv", "fig17_instants.csv"}
	for _, name := range must {
		info, err := os.Stat(dir + "/" + name)
		if err != nil {
			t.Errorf("%s missing: %v", name, err)
			continue
		}
		if info.Size() < 40 {
			t.Errorf("%s suspiciously small (%d bytes)", name, info.Size())
		}
	}
	// Spot-check CSV structure.
	raw, err := os.ReadFile(dir + "/fig5_cluster_series.csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if windows := d.Source().RunMeta.Windows; len(lines) != windows+1 {
		t.Errorf("fig5 csv has %d lines, want %d", len(lines), windows+1)
	}
	if !strings.HasPrefix(lines[0], "timestamp,power_w,pue") {
		t.Errorf("fig5 header = %q", lines[0])
	}
}

// failingSource serves a run but fails the one read its fields name with a
// plain error: a broken read, not data the run lacks.
type failingSource struct {
	source.RunSource
	series   string
	exemplar bool
}

var errBrokenRead = errors.New("broken read")

func (f failingSource) Series(name string) (*tsagg.Series, error) {
	if name == f.series {
		return nil, errBrokenRead
	}
	return f.RunSource.Series(name)
}

func (f failingSource) ExemplarGPUs() ([]source.GPUSample, error) {
	if f.exemplar {
		return nil, errBrokenRead
	}
	return f.RunSource.ExemplarGPUs()
}

// TestWriteFigureDataReturnsReadErrors: a figure is skipped only when the
// run lacks its data (source.ErrUnavailable); a failed read is the
// export's error, naming the figure.
func TestWriteFigureDataReturnsReadErrors(t *testing.T) {
	src := testRun(t).Source()
	for _, tc := range []struct {
		figure string
		src    failingSource
	}{
		{"figure 4", failingSource{RunSource: src, series: source.MeterSeriesName(0)}},
		{"figure 17", failingSource{RunSource: src, exemplar: true}},
	} {
		_, err := WriteFigureData(t.TempDir(), Render(tc.src))
		if !errors.Is(err, errBrokenRead) || !strings.HasPrefix(err.Error(), tc.figure+": ") {
			t.Errorf("%s read fails: export returns %v, want the error naming %s", tc.figure, err, tc.figure)
		}
	}
}

// TestFigure10NamesAFailedSwingsRead: a failed cluster_power read fails
// figure-10 with the read's error, never printing it without its steepest
// swings line.
func TestFigure10NamesAFailedSwingsRead(t *testing.T) {
	src := failingSource{RunSource: testRun(t).Source(), series: source.SeriesClusterPower}
	for _, r := range Render(src) {
		if r.Report.ID == "figure-10" && !errors.Is(r.Err, errBrokenRead) {
			t.Errorf("figure-10 over a failed %s read: %v, body %q; want the read's error",
				source.SeriesClusterPower, r.Err, r.Report.Body)
		}
	}
}

// TestFigure17HeatmapIsThePeakInstant: figure-17 draws its floor heatmap
// from the instant whose spreads it prints, the one of highest median GPU
// power.
func TestFigure17HeatmapIsThePeakInstant(t *testing.T) {
	src := testRun(t).Source()
	rep, err := core.Figure17Variability(src)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i, v := range rep.Instants {
		if v.PowerBox.Median > rep.Instants[peak].PowerBox.Median {
			peak = i
		}
	}
	var want strings.Builder
	want.WriteString("mean GPU temp by cabinet (0-9 scale):\n")
	if err := render.Heatmap(&want, rep.Instants[peak].MeanByCabinet, rep.Cabinets, 8); err != nil {
		t.Fatal(err)
	}
	body := reportOf(t, src, "figure-17").Body
	if !strings.HasSuffix(body, want.String()) {
		t.Errorf("figure-17 heatmap is not instant %d's (median %.1f W):\n%s\nwant it to end\n%s",
			peak+1, rep.Instants[peak].PowerBox.Median, body, want.String())
	}
}

// TestFigure7WritesItsCurveFiles: figure-7 writes one CDF file per
// leadership class, each of four equal columns as long as the longer of its
// two curves. The shorter curve is NaN-padded at its tail and nowhere else:
// in the first feed all Class 1 jobs share one wall time, so the wall curve
// is one point; in the second they share one max power, so the max-power
// curve is, and every wall-time point must still be written.
func TestFigure7WritesItsCurveFiles(t *testing.T) {
	var mixed, samePower []source.JobRecord
	for i := 0; i < 12; i++ {
		mixed = append(mixed,
			source.JobRecord{Class: int(units.Class1), Nodes: 2000 + i, EndTime: 3600,
				MaxPowerW: 5e6 + float64(i)*1e5, MeanPowerW: 4e6},
			source.JobRecord{Class: int(units.Class2), Nodes: 1000 + i, EndTime: int64(1800 * (i + 1)),
				MaxPowerW: 1e6 + float64(i)*5e4, MeanPowerW: 8e5})
		samePower = append(samePower, source.JobRecord{Class: int(units.Class1), Nodes: 2000 + i,
			EndTime: int64(600 * (i + 1)), MaxPowerW: 5e6, MeanPowerW: 4e6}) // 0.17-2 h
	}
	var fig7 SourceReport
	for _, r := range SourceReports {
		if r.ID == "figure-7" {
			fig7 = r
		}
	}
	for _, tc := range []struct {
		name    string
		jobs    []source.JobRecord
		classes []string
		pad     [][4]int // rows of NaN padding at each column's tail, per file
	}{
		{"one wall time", mixed, []string{"Class1", "Class2"}, [][4]int{{0, 0, 99, 99}, {0, 0, 0, 0}}},
		{"one max power", samePower, []string{"Class1"}, [][4]int{{99, 99, 0, 0}}},
	} {
		_, figs, err := fig7.render(&source.MemorySource{Jobs: tc.jobs})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		files, err := WriteFigureData(dir, []Rendered{{Report: Report{ID: fig7.ID}, Figures: figs, figures: true}})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, c := range tc.classes {
			want = append(want, filepath.Join(dir, "fig7_cdf_"+c+".csv"))
		}
		if !slices.Equal(files, want) {
			t.Fatalf("%s: figure-7 wrote %v, want %v", tc.name, files, want)
		}
		for ci, path := range files {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			if lines[0] != "max_power_mw,cdf_max_power,wall_hours,cdf_wall" || len(lines) != 101 {
				t.Fatalf("%s: %s: header %q, %d rows; want the four curve columns over 100 rows", tc.name, path, lines[0], len(lines)-1)
			}
			var padded [4]int
			for r, line := range lines[1:] {
				cells := strings.Split(line, ",")
				if len(cells) != 4 {
					t.Fatalf("%s: %s row %d: %d cells, want 4", tc.name, path, r, len(cells))
				}
				for c, cell := range cells {
					v, err := strconv.ParseFloat(cell, 64)
					if err != nil {
						t.Fatalf("%s: %s row %d: %v", tc.name, path, r, err)
					}
					if math.IsNaN(v) {
						padded[c]++
					} else if padded[c] > 0 {
						t.Fatalf("%s: %s column %d: a value at row %d follows NaN padding", tc.name, path, c, r)
					}
				}
			}
			if padded != tc.pad[ci] {
				t.Errorf("%s: %s: NaN padding per column %v, want %v", tc.name, path, padded, tc.pad[ci])
			}
		}
	}
}

func TestOvercoolingAndEarlyWarningFacade(t *testing.T) {
	d := testRun(t)
	oc, err := core.OvercoolingFromSource(d.Source())
	if err != nil {
		t.Fatal(err)
	}
	if oc.Windows == 0 {
		t.Error("no windows in overcooling report")
	}
	rep := reportOf(t, d.Source(), "section-5-overcooling")
	if !strings.Contains(rep.Body, "ton-hours") {
		t.Errorf("overcooling report body: %q", rep.Body)
	}
	ew, err := core.EarlyWarningFromSource(d.Source(), 3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(ew) != 3 {
		t.Errorf("early warning pairs = %d", len(ew))
	}
}

// TestPaperShapeProperties runs a moderate-scale simulation and asserts
// the headline shape findings of the paper hold — the automated version of
// EXPERIMENTS.md's comparisons.
func TestPaperShapeProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale shape test skipped in -short mode")
	}
	cfg := ScaledConfig(1152, 3*time.Hour) // quarter-scale floor
	d, _, err := core.CollectRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := d.Source()
	// §3/Fig4: summation above meters by ~11%, in phase.
	val, err := core.ValidationFromSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if val.MeanDiffAllW >= 0 {
		t.Errorf("Fig4: mean diff %v not negative", val.MeanDiffAllW)
	}
	if val.RelativeError < 0.07 || val.RelativeError > 0.15 {
		t.Errorf("Fig4: relative error %v, want ≈0.11", val.RelativeError)
	}
	for _, m := range val.PerMSB {
		if m.Corr < 0.95 {
			t.Errorf("Fig4: MSB %d phase corr %v", m.MSB, m.Corr)
		}
	}
	// Fig5: PUE inverse to power; plausible winter PUE.
	trends, err := core.Figure5Trends(src)
	if err != nil {
		t.Fatal(err)
	}
	if trends.PowerPUECorr > -0.3 {
		t.Errorf("Fig5/11: power-PUE corr %v, want strongly negative", trends.PowerPUECorr)
	}
	if trends.MeanPUE < 1.05 || trends.MeanPUE > 1.3 {
		t.Errorf("PUE %v out of plausible band", trends.MeanPUE)
	}
	// Fig10: majority of jobs show no edges.
	dyn, err := core.Figure10Dynamics(src)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.FracNoEdges < 0.6 {
		t.Errorf("Fig10: no-edge fraction %v, want clear majority", dyn.FracNoEdges)
	}
	// Table4: memory page faults dominate; NVLink concentrated.
	comp, err := core.Table4Composition(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) == 0 || comp[0].Type.String() != "Memory page fault" {
		t.Errorf("Table4: top type wrong: %+v", comp[:minInt(2, len(comp))])
	}
	for _, r := range comp {
		if r.Type.String() == "NVLINK error" && r.Count > 50 {
			if r.MaxPerNodeFrac < 0.8 {
				t.Errorf("Table4: NVLink concentration %v", r.MaxPerNodeFrac)
			}
		}
	}
	// Fig16: failures do not increase along the water path.
	placement, err := core.Figure16Placement(src, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range placement {
		total := 0
		for _, c := range p.Counts {
			total += c
		}
		if total < 200 {
			continue
		}
		if p.Counts[2] > p.Counts[0]*2 {
			t.Errorf("Fig16: %v increases along water path: %v", p.Type, p.Counts)
		}
	}
	// Utilization sane, as report.json states it.
	rep, err := whatif.AssessSource(src, whatif.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Utilization <= 0.2 || rep.Utilization > 1 {
		t.Errorf("utilization %v implausible", rep.Utilization)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
